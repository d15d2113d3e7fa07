import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from conftest import add_T1_to_e1, spectrum_rows
from test_hecke import literal_product, right_T_oracle
from cyclohecke.center import (
    CocenterCoordinates,
    IdempotentSplitError,
    JMCenterSpan,
    SingularGramError,
    center_and_jm_span,
    center_basis,
    central_idempotents,
    character_duals,
    cocenter_matrices,
    commutator_coordinates,
    commutator_operators,
    descriptor_characters,
    jm_center_span,
    multiplication_matrices,
    root_multiplicity,
    specialized_elementary_characters,
    trace_gram_matrix,
    _eigenspace_projector,
)
from cyclohecke.combinatorics import enumerate_multipartitions
from cyclohecke.hecke import AlgebraContext, AlgebraElement
from cyclohecke.ktheory import verify_blocks
from cyclohecke.suites import _module_map_witness
from cyclohecke.linalg import RowSpace, rank, transpose
from cyclohecke.rings import (CyclotomicDomain, PrimeFieldDomain,
                              RationalDomain)


class TestCenterBasis:
    def test_n2_r1_commutative(self, rational_ctx):
        # dim-2 algebra generated by one T, hence commutative
        for q in (2, -1, 7):
            ctx = rational_ctx(2, 1, Fraction(q), [1])
            assert len(center_basis(ctx)) == 2

    def test_n3_r1_generic(self, rational_ctx):
        ctx = rational_ctx(3, 1, Fraction(2), [1])
        assert len(center_basis(ctx)) == 3

    def test_center_elements_commute(self, rational_ctx):
        ctx = rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)])
        for z in center_basis(ctx):
            for g in ctx.generators():
                assert (z * g - g * z).is_zero()

    def test_symbolic_small_dimension(self, symbolic_ctx):
        # at (2,1) every commutator constraint vanishes, so no elimination
        # runs; at (2,2) the kernel would need a field, not the Laurent ring
        from cyclohecke.rings import UnsupportedDomainError
        assert len(center_basis(symbolic_ctx(2, 1))) == 2
        with pytest.raises(UnsupportedDomainError):
            center_basis(symbolic_ctx(2, 2))


def _difference(d, left, right):
    """The sparse column left - right, without zero entries."""
    return d.nonzero({k: left.get(k, d.zero) - right.get(k, d.zero)
                      for k in left.keys() | right.keys()})


class TestCommutatorOperators:
    """ad T_i against the Hecke rule on permutations and ad L_1 against the
    literal per-word product, both independent of the column recurrence;
    at r = 1 ad L_1 is zero and left out."""

    @pytest.mark.parametrize("field", ["Q", "F_p"])
    @pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 5)
                                      for r in range(1, 5)])
    def test_match_the_oracles(self, field, n, r):
        domain = RationalDomain() if field == "Q" else PrimeFieldDomain()
        ctx = AlgebraContext(n, r, domain, domain.from_int(3),
                             [domain.from_int(Q) for Q in (2, 5, 7, 11)[:r]])
        ops = commutator_operators(ctx)
        assert len(ops) == n - 1 + (r > 1)
        for i, op in enumerate(ops[:n - 1]):
            left = ctx._matrices[("T", i)]
            right = right_T_oracle(ctx, i + 1)
            assert op == [_difference(domain, left[b], right[b])
                          for b in range(ctx.dim)], i
        if r == 1:
            # the certified cyclotomic relation: L_1 is the scalar Q_1
            assert ctx._matrices[("L", 1)] == [
                {b: ctx.Q_vals[0]} for b in range(ctx.dim)]
        else:
            L1 = ctx.jm_element(1)
            assert ops[-1] == [
                _difference(domain, left, literal_product(
                    ctx, ctx.basis_element(b), L1))
                for b, left in enumerate(ctx._matrices[("L", 1)])]


class TestJMCenterSpan:
    def test_rank_2_1_generic(self, sampled_ctxs):
        for ctx in sampled_ctxs(2, 1):
            assert jm_center_span(ctx).rank == 2

    def test_rank_2_2_generic(self, sampled_ctxs):
        for ctx in sampled_ctxs(2, 2):
            assert jm_center_span(ctx).rank == 5

    def test_rank_drops_at_q_1(self):
        ctx = AlgebraContext(2, 2, RationalDomain(), Fraction(1),
                             [Fraction(2), Fraction(5)])
        assert jm_center_span(ctx).rank == 3  # < 5 multipartitions

    def test_descriptors_track_elements(self, sampled_ctxs):
        ctx = sampled_ctxs(2, 2)[0]
        span = jm_center_span(ctx)
        assert len(span.elements) == len(span.descriptors) == span.rank


def _early_stop_context(kind):
    rat = RationalDomain()
    cyc = CyclotomicDomain(3)
    return {
        "n4-q2": lambda: AlgebraContext(4, 1, rat, Fraction(2), [rat.one]),
        "n4-q-1": lambda: AlgebraContext(4, 1, rat, Fraction(-1), [rat.one]),
        "n4-zeta3": lambda: AlgebraContext(4, 1, cyc, cyc.zeta(1),
                                           [cyc.one]),
        "rat32": lambda: AlgebraContext(3, 2, rat, Fraction(3),
                                        [Fraction(2), Fraction(5)]),
        "rat23": lambda: AlgebraContext(
            2, 3, rat, Fraction(3), [Fraction(2), Fraction(5), Fraction(7)]),
    }[kind]()


def _row_space(ctx, elements):
    space = RowSpace(ctx.domain, ctx.dim)
    for x in elements:
        space.add(x.terms)
    return space


def _counting_operator(monkeypatch, ctx):
    """Count the vectors the e_k sweep is applied to."""
    calls = []
    sweep = ctx.apply_symmetric_jm

    def counted(vec):
        calls.append(vec)
        return sweep(vec)

    monkeypatch.setattr(ctx, "apply_symmetric_jm", counted)
    return calls


def _same_span(a, b):
    assert a.rank == b.rank
    assert a.descriptors == b.descriptors
    assert [x.terms for x in a.elements] == [x.terms for x in b.elements]


class TestJMSpanEarlyStop:
    """With the center's RowSpace the span stops at the center's rank and
    still equals the full loop term for term."""

    @pytest.mark.parametrize(
        "kind", ["n4-q2", "n4-q-1", "n4-zeta3", "rat32", "rat23"])
    def test_equals_full_loop(self, monkeypatch, kind):
        ctx = _early_stop_context(kind)
        center = _row_space(ctx, center_basis(ctx))
        calls = _counting_operator(monkeypatch, ctx)
        full = jm_center_span(ctx)
        full_calls = len(calls)
        stopped = jm_center_span(ctx, center)
        _same_span(stopped, full)
        assert (full.in_center, stopped.in_center) == (None, True)
        assert stopped.rank == center.rank
        # the stop fires: fewer monomials are pushed through the operators
        assert len(calls) - full_calls < full_calls

    def test_guard_blocks_stop_outside_the_center(self):
        # {1, e_1} has rank 2 but does not contain e_2, so the span may not
        # stop when it reaches rank 2
        ctx = _early_stop_context("n4-q2")
        fake = _row_space(ctx, [ctx.one(), ctx.symmetric_jm(1)])
        assert not fake.contains(ctx.symmetric_jm(2).terms)
        span = jm_center_span(ctx, fake)
        _same_span(span, jm_center_span(ctx))
        assert span.in_center is False
        assert span.rank == 5


class TestCharacters:
    # the map reads only n, r, domain, q_val and Q_vals
    def test_e1_n2_r1(self):
        # at q = 2, Q = 3 the values on (2) and (1,1) are Q + q Q = 9 and
        # Q + q^-1 Q = 9/2
        params = SimpleNamespace(n=2, r=1, domain=RationalDomain(),
                                 q_val=Fraction(2), Q_vals=[Fraction(3)])
        mps, rows = specialized_elementary_characters(params)
        assert mps == [((2,),), ((1, 1),)]
        assert [row[0] for row in rows] == [9, Fraction(9, 2)]

    def test_e2_at_two_single_boxes(self):
        # e_2 on ((1),(1)) is Q1 Q2
        params = SimpleNamespace(n=2, r=2, domain=RationalDomain(),
                                 q_val=Fraction(2),
                                 Q_vals=[Fraction(3), Fraction(5)])
        mps, rows = specialized_elementary_characters(params)
        assert rows[mps.index(((1,), (1,)))][1] == 15

    def test_constant_gives_ones(self):
        # the zero descriptor is the monomial 1
        params = SimpleNamespace(n=2, r=2, domain=RationalDomain(),
                                 q_val=Fraction(2),
                                 Q_vals=[Fraction(3), Fraction(5)])
        _, rows = specialized_elementary_characters(params)
        chars = descriptor_characters(params, rows, [(0, 0, 0)])
        assert chars == [[1]] * len(enumerate_multipartitions(2, 2))

    def test_descriptors_multiply_the_values(self):
        # at (2,1), q = 2, Q = 3: e_1 is 9 and 9/2, e_2 is q Q^2 = 18 and
        # q^-1 Q^2 = 9/2; a descriptor (a, b, c) is e_1^a e_2^b e_2^-c
        params = SimpleNamespace(n=2, r=1, domain=RationalDomain(),
                                 q_val=Fraction(2), Q_vals=[Fraction(3)])
        _, rows = specialized_elementary_characters(params)
        chars = descriptor_characters(
            params, rows, [(1, 1, 0), (0, 0, 1), (0, 1, 1), (2, 0, 0)])
        assert chars == [[162, Fraction(1, 18), 1, 81],
                         [Fraction(81, 4), Fraction(2, 9), 1,
                          Fraction(81, 4)]]

    def test_sigma_matrix_full_rank_generic(self, sampled_ctxs):
        for n, r in [(2, 1), (3, 1), (2, 2)]:
            for ctx in sampled_ctxs(n, r):
                span = jm_center_span(ctx)
                _, values = specialized_elementary_characters(ctx)
                matrix = descriptor_characters(ctx, values, span.descriptors)
                rows = [dict(enumerate(row)) for row in matrix]
                assert rank(rows, ctx.domain) == \
                    len(enumerate_multipartitions(n, r))


class TestMinimalPolynomialShadow:
    @pytest.mark.parametrize("n,r", [(3, 1), (2, 2)])
    def test_product_over_distinct_character_values(self, sampled_ctxs, n, r):
        # central elements act blockwise by their character values, so the
        # product of (e_1 - value) over distinct values must vanish
        for ctx in sampled_ctxs(n, r):
            _, rows = specialized_elementary_characters(ctx)
            values = sorted({row[0] for row in rows})
            e1 = ctx.symmetric_jm(1)
            prod = ctx.one()
            for v in values:
                prod = prod * (e1 - v * ctx.one())
            assert prod.is_zero()


def _pairing_data(ctx):
    """The span, the cocenter coordinates and the replayed Gram matrix."""
    span = jm_center_span(ctx)
    coords = commutator_coordinates(ctx)
    gram = trace_gram_matrix(ctx, span, coords, cocenter_matrices(ctx, coords))
    return span, coords, gram


def product_gram_matrix(ctx, span, coords):
    """tau(b_j * z_i) by products in the algebra, as sparse rows {position
    in the complement: entry}: the oracle for the replayed Gram matrix."""
    d = ctx.domain
    return [{k: x for k, j in enumerate(coords.complement)
             if not d.is_zero(x := (ctx.basis_element(j) * z).tau())}
            for z in span.elements]


def z_times_word_gram_matrix(ctx, span, coords):
    """The same matrix in the form tau(z_i * b_j)."""
    d = ctx.domain
    return [{k: x for k, j in enumerate(coords.complement)
             if not d.is_zero(x := (z * ctx.basis_element(j)).tau())}
            for z in span.elements]


def _assert_gram_is_the_products(ctx):
    span, coords, gram = _pairing_data(ctx)
    assert gram == product_gram_matrix(ctx, span, coords)
    assert gram == z_times_word_gram_matrix(ctx, span, coords)


class TestCocenter:
    @pytest.mark.parametrize("n,r,expected", [(2, 1, 2), (3, 1, 3), (2, 2, 5)])
    def test_dimension(self, sampled_ctxs, n, r, expected):
        ctx = sampled_ctxs(n, r)[0]
        assert commutator_coordinates(ctx).dim == expected

    def test_zero_maps_to_zero(self, sampled_ctxs):
        ctx = sampled_ctxs(2, 1)[0]
        span, coords, gram = _pairing_data(ctx)
        _, rows = specialized_elementary_characters(ctx)
        (out,) = character_duals(ctx, rows,
                                 [[ctx.domain.zero, ctx.domain.zero]],
                                 span, coords, gram)
        assert out == {}

    def test_defining_identity(self, sampled_ctxs):
        # tau(z * dual(x)) = sum_lam char(z)_lam x_lam for all spanned z
        ctx = sampled_ctxs(2, 2)[0]
        span, coords, gram = _pairing_data(ctx)
        rng = random.Random(2)
        _, rows = specialized_elementary_characters(ctx)
        chars = descriptor_characters(ctx, rows, span.descriptors)
        for _ in range(10):
            x = [ctx.domain.from_int(rng.randint(-4, 4)) for _ in range(5)]
            (dual,) = character_duals(ctx, rows, [x], span, coords, gram)
            element = AlgebraElement(ctx, dual)
            for i, z in enumerate(span.elements):
                lhs = (z * element).tau()
                rhs = ctx.domain.zero
                for lam in range(5):
                    rhs = rhs + chars[lam][i] * x[lam]
                assert ctx.domain.is_zero(lhs - rhs)

    def test_module_property_spot_checks(self, sampled_ctxs):
        ctx = sampled_ctxs(2, 1)[0]
        span, coords, gram = _pairing_data(ctx)
        _, rows = specialized_elementary_characters(ctx)
        chars = descriptor_characters(ctx, rows, span.descriptors)
        rng = random.Random(3)
        for _ in range(100):
            x = [ctx.domain.from_int(rng.randint(-4, 4)) for _ in range(2)]
            a_idx = rng.randrange(len(span.elements))
            a = span.elements[a_idx]
            ax = [chars[lam][a_idx] * x[lam] for lam in range(2)]
            lhs, dual = character_duals(ctx, rows, [ax, x], span, coords,
                                        gram)
            rhs = coords.span.reduce((a * AlgebraElement(ctx, dual)).terms)
            assert lhs == rhs


class TestGramReplay:
    """trace_gram_matrix replays the descriptors on the cocenter matrices;
    the products in the algebra are its oracle."""

    @pytest.mark.parametrize("n,r", [(4, 1), (2, 3)])
    def test_equals_the_products_at_sampled_parameters(self, sampled_ctxs,
                                                       n, r):
        _assert_gram_is_the_products(sampled_ctxs(n, r)[0])

    def test_transposed_matrices_are_caught_only_by_the_oracle(
            self, monkeypatch, sampled_ctxs):
        # transposed C_k have the same joint spectrum: the Gram matrix they
        # replay is another invertible matrix, and the dual built on it
        # passes the module check, so only the product oracle sees them
        from cyclohecke import suites

        def transposed(ctx, coords):
            return [transpose(cols, coords.dim)
                    for cols in cocenter_matrices(ctx, coords)]

        ctx = sampled_ctxs(3, 2)[0]
        span = jm_center_span(ctx)
        coords = commutator_coordinates(ctx)
        gram = trace_gram_matrix(ctx, span, coords, transposed(ctx, coords))
        assert gram != product_gram_matrix(ctx, span, coords)
        monkeypatch.setattr(suites, "cocenter_matrices", transposed)
        assert suites.suite_pairing(3, 2, samples=1).passed

    def test_complement_without_word_0_is_refused(self, sampled_ctxs):
        # an [H, H] with a pivot at word 0: tau does not vanish on it
        ctx = sampled_ctxs(2, 2)[0]
        span = jm_center_span(ctx)
        coords = commutator_coordinates(ctx)
        space = RowSpace(ctx.domain, ctx.dim)
        for row in coords.span.rows.values():
            space.add(row)
        space.add({0: ctx.domain.one})
        traced = CocenterCoordinates(space, space.non_pivot_columns())
        mats = cocenter_matrices(ctx, traced)
        with pytest.raises(SingularGramError, match="does not vanish"):
            trace_gram_matrix(ctx, span, traced, mats)


def unique_eigenvalue(ctx, mu):
    """The unique root v with mu = (x - v)^deg, or None if mu is not of that
    shape; v is read off the subleading coefficient and checked by the
    binomial theorem."""
    d = ctx.domain
    k = len(mu) - 1
    if k == 0:
        return None
    v = -mu[k - 1] * d.inv(d.from_int(k))
    for i, c in enumerate(mu):
        if not d.is_zero(d.from_int(comb(k, i)) * (-v) ** (k - i) - c):
            return None
    return v


def product_min_poly(ctx, eps, z):
    """Monic minimal polynomial (ascending coefficients) of the central
    element z on the ideal eps * Z, by products in the algebra: the oracle
    for the coordinate form. The power z^k eps enters one RowSpace with a 1
    in the extra column dim + k; the first power that depends on the
    earlier ones leaves a residual on the extra columns only, the relation
    with coefficient 1 at z^k."""
    d = ctx.domain
    span = RowSpace(d, 2 * ctx.dim + 1)
    power = eps
    k = 0
    while True:
        residual = span.reduce({**power.terms, ctx.dim + k: d.one})
        if min(residual) >= ctx.dim:
            return [residual.get(ctx.dim + j, d.zero) for j in range(k + 1)]
        span.add(residual)
        power = z * power
        k += 1


def product_idempotents(ctx):
    """The block idempotents and their spectra built by products in the
    algebra, in the order of central_idempotents: for each spectrum row s,
    eps starts at 1 and becomes p(e_k) eps for k = 1..n, p the eigenspace
    projector of the product minimal polynomial of e_k on eps * Z."""
    _, span = center_and_jm_span(ctx)
    classes = spectrum_rows(ctx)
    columns = [list(dict.fromkeys(column)) for column in zip(*classes)]
    blocks = []
    for s in classes:
        eps = ctx.one()
        for e_k, values, s_k in zip(span.generators, columns, s):
            mu = product_min_poly(ctx, eps, e_k)
            p = _eigenspace_projector(ctx.domain, mu, values, s_k)
            component = eps * p[-1]
            for c in reversed(p[:-1]):
                component = e_k * component + eps * c
            eps = component
        blocks.append((min(eps.terms), eps, s))
    blocks.sort(key=lambda block: block[0])
    return [e for _, e, _ in blocks], [s for _, _, s in blocks]


def _single_eigenvalues(ctx, eps, elements):
    """The eigenvalue of each central element on the ideal eps * Z, or None
    if one of them has more than one there."""
    values = [unique_eigenvalue(ctx, product_min_poly(ctx, eps, x))
              for x in elements]
    return None if any(v is None for v in values) else values


def _generator_certificate(ctx, eps):
    """The root-extraction certificate on e_1..e_n, an oracle independent of
    the spectral projection: e_1..e_n have single eigenvalues on eps * Z."""
    gens = [ctx.symmetric_jm(k) for k in range(1, ctx.n + 1)]
    return _single_eigenvalues(ctx, eps, gens) is not None


def _center_basis_certificate(ctx, zbasis, eps):
    """The same certificate on every center basis element."""
    return _single_eigenvalues(ctx, eps, zbasis) is not None


def _assert_oracles_agree(ctx, eps, spectra):
    """Both root-extraction certificates accept every returned idempotent
    and refuse the identity and a sum of two blocks, and the returned
    spectra are the eigenvalues they extract."""
    zbasis = center_basis(ctx)
    gens = [ctx.symmetric_jm(k) for k in range(1, ctx.n + 1)]
    assert len(eps) >= 2
    for e, spectrum in zip(eps, spectra):
        assert _center_basis_certificate(ctx, zbasis, e)
        assert _generator_certificate(ctx, e)
        assert spectrum == tuple(_single_eigenvalues(ctx, e, gens))
    for merged in (ctx.one(), eps[0] + eps[1]):
        assert not _center_basis_certificate(ctx, zbasis, merged)
        assert not _generator_certificate(ctx, merged)


class TestIdempotents:
    def test_generic_n2_r1_two_blocks(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(7), [1])
        eps, _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 2

    def test_q_minus_one_single_block(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(-1), [1])
        eps, _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 1

    def test_cyclotomic_order_two(self):
        dom = CyclotomicDomain(2)
        ctx = AlgebraContext(2, 2, dom, dom.zeta(1), [dom.one, dom.one])
        eps, _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 2

    def test_family_is_orthogonal_and_complete(self, rational_ctx):
        ctx = rational_ctx(3, 1, Fraction(-1), [1])
        eps, _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 2
        total = ctx.zero()
        for i, e in enumerate(eps):
            assert e * e == e
            for j in range(i + 1, len(eps)):
                assert (e * eps[j]).is_zero()
            for g in ctx.generators():
                assert (e * g - g * e).is_zero()
            total = total + e
        assert total == ctx.one()

    def test_deterministic(self, rational_ctx):
        ctx = rational_ctx(3, 1, Fraction(-1), [1])
        eps1, spectra1, _ = central_idempotents(ctx, spectrum_rows(ctx))
        eps2, spectra2, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert all(a == b for a, b in zip(eps1, eps2))
        assert spectra1 == spectra2

    def test_galois_stable_split_over_larger_field(self):
        # order-4 cyclotomic parameters: semisimple with two blocks whose
        # spectra and idempotent coefficients live in Q(i), not in Q
        dom = CyclotomicDomain(4)
        ctx = AlgebraContext(2, 1, dom, dom.zeta(1), [dom.one])
        eps, _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 2

    def test_q_one_is_refused(self, rational_ctx):
        # at q = 1 the spectra cannot separate the two blocks of Q[S_2]:
        # e_1 and e_2 are scalars there, so the generator certificate
        # accepts the identity; the generators are central but rank JM <
        # dim Z, which is refused before any component is built
        ctx = rational_ctx(2, 1, Fraction(1), [1])
        center, span = center_and_jm_span(ctx)
        assert span.in_center and span.rank < center.rank
        assert _single_eigenvalues(
            ctx, ctx.one(), span.generators[:-1]) is not None
        with pytest.raises(IdempotentSplitError,
                           match="the Jucys-Murphy center is not the center"):
            central_idempotents(ctx, spectrum_rows(ctx))

    def test_smaller_jm_span_is_a_failed_report(self, monkeypatch):
        from cyclohecke import center

        true_span = center.center_and_jm_span

        def smaller(ctx):
            zspace, span = true_span(ctx)
            return zspace, JMCenterSpan(
                span.rank - 1, span.elements[:-1], span.descriptors[:-1],
                span.generators, span.in_center)

        monkeypatch.setattr(center, "center_and_jm_span", smaller)
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses == [{
            "reason": "idempotent splitting failed",
            "error": "the Jucys-Murphy center is not the center"}]


def _root_of_unity_ctx(n, r, ell, charge):
    dom = CyclotomicDomain(ell)
    return AlgebraContext(n, r, dom, dom.zeta(1),
                          [dom.zeta(s) for s in charge])


class TestPrimitivityCertificate:
    def test_rejects_identity_of_two_blocks(self):
        ctx = _root_of_unity_ctx(3, 1, 2, (0,))
        assert not _generator_certificate(ctx, ctx.one())
        eps, spectra, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 2
        _assert_oracles_agree(ctx, eps, spectra)

    def test_rejects_sum_of_two_blocks(self):
        ctx = _root_of_unity_ctx(2, 2, 5, (0, 1))
        eps, spectra, _ = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == 3
        _assert_oracles_agree(ctx, eps, spectra)

    def test_spectra_are_the_certified_eigenvalues(self):
        ctx = _root_of_unity_ctx(2, 2, 5, (0, 1))
        eps, spectra, _ = central_idempotents(ctx, spectrum_rows(ctx))
        for e, spectrum in zip(eps, spectra):
            assert spectrum == tuple(
                unique_eigenvalue(ctx, product_min_poly(
                    ctx, e, ctx.symmetric_jm(k)))
                for k in range(1, ctx.n + 1))

    def test_merged_spectrum_classes_are_refused(self, monkeypatch):
        # (3,1) at ell = 2 has two blocks; pretending both spectra are one
        # class gives the identity as the only component, which is not
        # primitive
        from cyclohecke import ktheory

        ctx = _root_of_unity_ctx(3, 1, 2, (0,))
        with pytest.raises(IdempotentSplitError, match="not primitive"):
            central_idempotents(ctx, spectrum_rows(ctx)[:1])
        split = ktheory.central_idempotents
        monkeypatch.setattr(ktheory, "central_idempotents",
                            lambda ctx, classes: split(ctx, classes[:1]))
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses == [{"reason": "idempotent splitting failed",
                                  "error": "component not primitive"}]


class TestBlockSpectra:
    def test_root_multiplicity_over_q(self, rational_ctx):
        d = rational_ctx(2, 1, Fraction(2), [1]).domain
        # (x - 1)^2 (x - 2) = x^3 - 4x^2 + 5x - 2
        mu = [d.from_int(c) for c in (-2, 5, -4, 1)]
        assert [root_multiplicity(d, mu, d.from_int(v))
                for v in (1, 2, 3)] == [2, 1, 0]

    def test_root_multiplicity_over_cyclotomic_field(self):
        d = CyclotomicDomain(5)
        a, b = d.zeta(1), d.one + d.zeta(2)
        # (x - a)^3 (x - b), expanded by the oracle's own convolution
        mu = [d.one]
        for root in (a, a, a, b):
            mu = [(mu[i - 1] if i else d.zero)
                  - root * (mu[i] if i < len(mu) else d.zero)
                  for i in range(len(mu) + 1)]
        assert root_multiplicity(d, mu, a) == 3
        assert root_multiplicity(d, mu, b) == 1
        assert root_multiplicity(d, mu, d.zeta(2)) == 0
        assert root_multiplicity(d, [d.zero] + mu, d.zero) == 1

    def test_unique_eigenvalue_extraction(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(-1), [1])
        (eps,), _, _ = central_idempotents(ctx, spectrum_rows(ctx))
        mu = product_min_poly(ctx, eps, ctx.symmetric_jm(1))
        value = unique_eigenvalue(ctx, mu)
        # e_1 = L_1 + L_2 = Q_1 + q Q_1 = 0 at q = -1, Q_1 = 1
        assert value == Fraction(0)
        # cyclotomic, k = 3: (x - v)^3 = x^3 - 3v x^2 + 3v^2 x - v^3
        ctx = _root_of_unity_ctx(2, 2, 5, (0, 1))
        d = ctx.domain
        v = d.from_int(2) - d.zeta(1) + d.zeta(3)
        three = d.from_int(3)
        mu = [-(v * v * v), three * v * v, -(three * v), d.one]
        assert unique_eigenvalue(ctx, mu) == v
        for i in range(3):
            bent = list(mu)
            bent[i] = bent[i] + d.zeta(2)
            assert unique_eigenvalue(ctx, bent) is None, i
        # a minimal polynomial of degree 3 from a real block: e_2 on the
        # first block of (2,2) at q = -1, Q = (1, 1)
        ctx = _root_of_unity_ctx(2, 2, 2, (0, 0))
        eps = central_idempotents(ctx, spectrum_rows(ctx))[0][0]
        mu = product_min_poly(ctx, eps, ctx.symmetric_jm(2))
        assert len(mu) == 4
        assert unique_eigenvalue(ctx, mu) == ctx.domain.from_int(-1)

    def test_rejects_multi_eigenvalue_polynomials(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(2), [1])
        # (x - 1)(x - 2) is not a power of a single linear factor
        mu = [ctx.domain.from_int(2), ctx.domain.from_int(-3),
              ctx.domain.one]
        assert unique_eigenvalue(ctx, mu) is None


class TestPerElementOracles:
    """The per-element loops that the generator certificates replaced, kept
    as oracles: inclusion, centrality, the module property and primitivity
    checked on every span element or center basis element agree with the
    checks on the generators."""

    @pytest.fixture(params=["(3,1) q=-1", "(2,2) zeta_5", "(3,2) generic"])
    def ctx(self, request, rational_ctx, sampled_ctxs):
        if request.param == "(3,1) q=-1":
            return rational_ctx(3, 1, Fraction(-1), [1])
        if request.param == "(2,2) zeta_5":
            return _root_of_unity_ctx(2, 2, 5, (0, 1))
        return sampled_ctxs(3, 2)[0]

    def test_every_span_element_is_central(self, ctx):
        center, span = center_and_jm_span(ctx)
        assert span.in_center
        for x in span.elements:
            assert center.contains(x.terms)
            for g in ctx.generators():
                assert x * g == g * x

    def test_module_property_on_every_span_element(self, ctx):
        mps = enumerate_multipartitions(ctx.n, ctx.r)
        span = jm_center_span(ctx)
        coords = commutator_coordinates(ctx)
        mats = cocenter_matrices(ctx, coords)
        gram = trace_gram_matrix(ctx, span, coords, mats)
        _, rows = specialized_elementary_characters(ctx)
        chars = descriptor_characters(ctx, rows, span.descriptors)
        d = ctx.domain
        for lam in range(len(mps)):
            unit = [d.one if k == lam else d.zero for k in range(len(mps))]
            dual = AlgebraElement(ctx, character_duals(
                ctx, rows, [unit], span=span, coords=coords, gram=gram)[0])
            for a, sigma in zip(span.elements, chars[lam]):
                assert coords.span.reduce((a * dual).terms) == \
                    (dual * sigma).terms
        assert _module_map_witness(ctx, mps, span, coords, gram, mats) is None

    def test_gram_matrix_matches_the_z_times_word_form(self, ctx):
        # and the tau(b_j * z) form
        _assert_gram_is_the_products(ctx)

    def test_center_basis_certificate_agrees_on_every_block(self, ctx):
        eps, spectra, _ = central_idempotents(ctx, spectrum_rows(ctx))
        _assert_oracles_agree(ctx, eps, spectra)


_CHARGES = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 0)]}
_GRID = [(n, r, ell, charge) for n in (1, 2, 3) for r in (1, 2)
         for ell in (2, 3, 4, 5) for charge in _CHARGES[r]]
# the spectrum classes come in another order than the sorted blocks
_REORDERED = [(4, 1, 4, (0,)), (3, 2, 3, (0, 1)), (3, 2, 3, (1, 0))]


def _case_id(case):
    n, r, ell, charge = case
    return f"({n},{r})-ell{ell}-charge{''.join(map(str, charge))}"


class TestCoordinatesAgainstProducts:
    """central_idempotents works in the coordinates of Z; the construction
    by products in the algebra is the oracle for its idempotents, spectra
    and image dimensions."""

    @pytest.mark.parametrize(
        "case", _GRID + [c for c in _REORDERED if c not in _GRID],
        ids=_case_id)
    def test_same_blocks_as_the_product_construction(self, case):
        ctx = _root_of_unity_ctx(*case)
        eps, spectra, image_dims = central_idempotents(ctx, spectrum_rows(ctx))
        ref_eps, ref_spectra = product_idempotents(ctx)
        assert [e.terms for e in eps] == [e.terms for e in ref_eps]
        assert spectra == ref_spectra
        # eps Z is spanned by the z eps, read off the right multiplication
        # matrix of eps
        _, span = center_and_jm_span(ctx)
        ranks = []
        for e in eps:
            right = ctx.right_multiplication_matrix(e)
            ranks.append(rank([ctx.domain.apply_cols(right, z.terms)
                               for z in span.elements], ctx.domain))
        assert image_dims == ranks
        if case in _REORDERED:
            assert spectra != spectrum_rows(ctx)

    @pytest.mark.parametrize("case", [(3, 1, 2, (0,)), (2, 2, 5, (0, 1)),
                                      (3, 2, 3, (1, 0))], ids=_case_id)
    def test_multiplication_matrices_are_the_products(self, case):
        ctx = _root_of_unity_ctx(*case)
        _, span = center_and_jm_span(ctx)
        mats = multiplication_matrices(ctx, span)
        for k, cols in enumerate(mats, start=1):
            e_k = ctx.symmetric_jm(k)
            for z, col in zip(span.elements, cols):
                image = ctx.zero()
                for j, c in col.items():
                    image = image + span.elements[j] * c
                assert image == e_k * z


class TestCoordinateFaults:
    """Each check of central_idempotents fails on its own fault, and the
    failure is a failed block_decomposition report."""

    @staticmethod
    def _refused(case, error, alter=None, monkeypatch=None):
        """The split of case fails with error, directly and in
        verify_blocks; alter, if given, changes the classes of both."""
        ctx = _root_of_unity_ctx(*case)
        rows = spectrum_rows(ctx)
        if alter is not None:
            from cyclohecke import ktheory

            rows = alter(rows)
            split = ktheory.central_idempotents
            monkeypatch.setattr(
                ktheory, "central_idempotents",
                lambda ctx, classes: split(ctx, alter(classes)))
        with pytest.raises(IdempotentSplitError, match=error):
            central_idempotents(ctx, rows)
        rep = verify_blocks(*case)
        assert rep.status == "fail"
        assert rep.witnesses == [{"reason": "idempotent splitting failed",
                                  "error": error}]

    def test_bumped_multiplication_entry_is_not_primitive(self, monkeypatch):
        from cyclohecke import center

        true_matrices = center.multiplication_matrices

        def bumped(ctx, span):
            mats = true_matrices(ctx, span)
            col = mats[0][1]
            col[0] = col.get(0, ctx.domain.zero) + ctx.domain.one
            return mats

        monkeypatch.setattr(center, "multiplication_matrices", bumped)
        self._refused((3, 1, 2, (0,)), "component not primitive")

    def test_bumped_projector_is_not_idempotent(self, monkeypatch):
        from cyclohecke import center

        true_projector = center._eigenspace_projector

        def bumped(d, mu, values, s):
            p = true_projector(d, mu, values, s)
            p[0] = p[0] + d.one
            return p

        monkeypatch.setattr(center, "_eigenspace_projector", bumped)
        self._refused((3, 1, 2, (0,)),
                      "non-idempotent component")

    def test_repeated_class_is_not_orthogonal(self, monkeypatch):
        self._refused((3, 1, 2, (0,)), "components are not orthogonal",
                      lambda classes: classes + classes[:1], monkeypatch)

    def test_missing_class_does_not_sum_to_one(self, monkeypatch):
        # (2,2) at ell = 2, charge (0, 1) is one block; with more blocks a
        # missing class also drops a value the root count needs
        self._refused((2, 2, 2, (0, 1)),
                      "components do not sum to the identity",
                      lambda classes: [], monkeypatch)

    def test_sweep_fault_after_the_span_is_not_closed(self, monkeypatch):
        # the span is built and certified first; only the sweeps of the
        # multiplication matrices see e_1 + T_1 in place of e_1
        from cyclohecke import center

        true_span = center.center_and_jm_span
        sweep = AlgebraContext.apply_symmetric_jm

        def then_faulted(ctx):
            monkeypatch.setattr(AlgebraContext, "apply_symmetric_jm", sweep)
            result = true_span(ctx)
            add_T1_to_e1(monkeypatch)
            return result

        monkeypatch.setattr(center, "center_and_jm_span", then_faulted)
        self._refused((3, 1, 2, (0,)), "the span is not closed")

    @pytest.mark.parametrize("case", [(3, 1, 2, (0,)), (2, 2, 5, (0, 1))],
                             ids=_case_id)
    def test_no_algebra_product(self, monkeypatch, case):
        from cyclohecke import ktheory

        def refuse(self, x, y):
            raise AssertionError("algebra product")

        ctx = _root_of_unity_ctx(*case)
        monkeypatch.setattr(AlgebraContext, "multiply", refuse)
        eps, _, image_dims = central_idempotents(ctx, spectrum_rows(ctx))
        assert len(eps) == len(image_dims) >= 2
        monkeypatch.undo()
        # verify_blocks builds its own context, whose self-test multiplies
        split = ktheory.central_idempotents

        def without_products(ctx, classes):
            monkeypatch.setattr(AlgebraContext, "multiply", refuse)
            return split(ctx, classes)

        monkeypatch.setattr(ktheory, "central_idempotents", without_products)
        assert verify_blocks(*case).passed

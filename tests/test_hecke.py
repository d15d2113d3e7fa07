import random
from fractions import Fraction

import pytest

from cyclohecke import hecke
from cyclohecke.hecke import (
    AlgebraContext,
    AlgebraElement,
    EngineError,
    all_permutations,
    check_relations,
    left_mult_simple,
    one_step_T_push,
    perm_length,
    reduced_word,
    right_mult_simple,
    straightening_closed_form,
    symbolic_context,
    validate_straightening,
)
from cyclohecke.center import center_basis
from cyclohecke.rings import (CyclotomicDomain, LaurentPoly,
                              PrimeFieldDomain, RationalDomain,
                              elementary_symmetric)
from conftest import _random_element, literal_L


def literal_product(ctx, x, y):
    """x * y word by word, the reference for ctx.multiply: for each left
    term c L_1^a_1 ... L_n^a_n T_w apply reduced_word(w) right to left, then
    L_n^a_n, ..., L_1^a_1, each L_k by literal_L, and sum c times the
    results."""
    d = ctx.domain
    out = {}

    def T(i):
        return lambda v: ctx.domain.apply_cols(ctx._matrices[("T", i)], v)

    def L(k):
        return lambda v: literal_L(ctx, k, v)

    for k, cx in x.terms.items():
        exps, w = ctx.basis[k]
        T_stage = [T(i) for i in reversed(reduced_word(w))]
        L_stage = [L(k) for k in range(ctx.n, 0, -1)
                   for _ in range(exps[k - 1])]
        vec = y.terms
        for step in T_stage + L_stage:
            vec = step(vec)
        for k, c in vec.items():
            out[k] = out.get(k, d.zero) + cx * c
    return {k: c for k, c in out.items() if not d.is_zero(c)}


def product_vector(ctx, x, y):
    return ctx.multiply(x, y).terms


def corrupt_straightening(monkeypatch):
    """Flip the sign of the (q-1) straightening terms in every T matrix
    built from now on."""
    build = AlgebraContext._build_T_matrix

    def corrupted(self, i):
        cols = build(self, i)
        d = self.domain
        qm1 = self.q_val - d.one
        for (exps, w), col in zip(self.basis, cols):
            ai, aj = exps[i], exps[i + 1]
            sign = d.from_int(1 if aj > ai else -1)
            for k in range(min(ai, aj), max(ai, aj)):
                e = list(exps)
                e[i], e[i + 1] = k, ai + aj - k
                self._accumulate(col, (tuple(e), w), -2 * qm1 * sign)
        return cols

    monkeypatch.setattr(AlgebraContext, "_build_T_matrix", corrupted)


def conjugate_generators(ctx, a, b):
    """Replace every stored generator matrix M (T_1..T_{n-1} and L_1) by
    P M P, P the transposition of the basis indices a and b. The conjugated
    matrices still satisfy every relation, but no longer act on PBW
    coordinates."""
    def swap(k):
        return b if k == a else a if k == b else k

    for key, cols in ctx._matrices.items():
        ctx._matrices[key] = [
            {swap(k): v for k, v in cols[swap(j)].items()}
            for j in range(ctx.dim)]


def scale_matrices(ctx, kind, c):
    for key, cols in ctx._matrices.items():
        if key[0] == kind:
            ctx._matrices[key] = [{k: c * v for k, v in col.items()}
                                  for col in cols]


def fault_T3_is_T2(ctx):
    ctx._matrices[("T", 2)] = ctx._matrices[("T", 1)]


def fault_conjugated_L1(ctx):
    """L_1 replaced by P L_1 P, P swapping the basis indices 0 and 1: still
    a root of the cyclotomic polynomial."""
    cols = ctx._matrices[("L", 1)]
    swap = {0: 1, 1: 0}
    ctx._matrices[("L", 1)] = [
        {swap.get(k, k): v for k, v in cols[swap.get(j, j)].items()}
        for j in range(ctx.dim)]


def fault_T3_is_T1(ctx):
    ctx._matrices[("T", 2)] = ctx._matrices[("T", 0)]


def fault_T2_other_root(ctx):
    """T_2 replaced by (q-1) - T_2, which swaps the roots q and -1 of the
    quadratic relation."""
    d = ctx.domain
    qm1 = ctx.q_val - d.one
    cols = []
    for j, col in enumerate(ctx._matrices[("T", 1)]):
        new = {k: -v for k, v in col.items()}
        new[j] = new.get(j, d.zero) + qm1
        cols.append({k: v for k, v in new.items() if not d.is_zero(v)})
    ctx._matrices[("T", 1)] = cols


def fault_scaled_T(ctx):
    scale_matrices(ctx, "T", ctx.domain.from_int(2))


def fault_scaled_L(ctx):
    scale_matrices(ctx, "L", ctx.domain.from_int(2))


def unit_vector_relations(ctx):
    """(name, lhs, rhs) with lhs/rhs functions on basis vectors (index-keyed
    dicts): the Ariki-Koike presentation with T_0 = L_1, one unit vector at
    a time, with T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0 stated as L_1 L_2 =
    L_2 L_1 through ctx._apply_L: the oracle that the certificate's column
    form (hecke._presentation_witness) is compared against."""
    n = ctx.n

    def T(i):  # 1-based
        mat = ctx._matrices[("T", i - 1)]
        return lambda v: ctx.domain.apply_cols(mat, v)

    def L(i):
        return lambda v: ctx._apply_L(i, v)

    def compose(*fs):
        def apply(v):
            for f in reversed(fs):
                v = f(v)
            return v
        return apply

    def combine(*cfs):
        def apply(v):
            out = {}
            for c, f in cfs:
                ctx.domain.add_scaled(out, f(v), c)
            return out
        return apply

    identity = lambda v: dict(v)
    q = ctx.q_val
    one = ctx.domain.one
    qm1 = q - one
    out = []
    for i in range(1, n):
        for j in range(i + 2, n):
            out.append((f"commute T{i} T{j}",
                        compose(T(i), T(j)), compose(T(j), T(i))))
    if n >= 2:
        out.append(("commute L1 L2",
                    compose(L(1), L(2)), compose(L(2), L(1))))
    for i in range(2, n):
        out.append((f"commute T{i} L1",
                    compose(T(i), L(1)), compose(L(1), T(i))))
    for i in range(1, n - 1):
        out.append((f"braid T{i} T{i + 1}",
                    compose(T(i), T(i + 1), T(i)),
                    compose(T(i + 1), T(i), T(i + 1))))
    for i in range(1, n):
        out.append((f"quadratic T{i}",
                    compose(T(i), T(i)),
                    combine((qm1, T(i)), (q, identity))))

    def cyclotomic(v):
        for Q in ctx.Q_vals:
            v = combine((one, L(1)), (-Q, identity))(v)
        return v

    out.append(("cyclotomic prod (L1 - Qi)",
                cyclotomic, lambda v: {}))
    return out


def oracle_failures(ctx):
    """{name: {basis index: residual lhs - rhs}} with every failing basis
    word of every failing family of unit_vector_relations, in family
    order."""
    d = ctx.domain
    failures = {}
    for name, lhs, rhs in unit_vector_relations(ctx):
        for j in range(ctx.dim):
            diff = lhs({j: d.one})
            ctx.domain.add_scaled(diff, rhs({j: d.one}), -d.one)
            if diff:
                failures.setdefault(name, {})[j] = diff
    return failures


def failing_families(ctx):
    """Names of every relation family with a failing basis word."""
    return list(oracle_failures(ctx))


def l_before_t_recurrence(monkeypatch):
    """Make the column steps of every context built from now on apply each
    word's L factors before its T_w: the column of L^a T_w x is T_i applied
    to the column of L^a T_{s_i w} x, down to the column of L^a x."""
    def wrong(self):
        steps = [None]
        for exps, w in self.basis[1:]:
            if w == self._identity_perm:
                j = next(i for i, a in enumerate(exps) if a)
                prev = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
                steps.append((self.index[(prev, w)], "L", j + 1))
            else:
                i = reduced_word(w)[0]
                prev = self.index[(exps, left_mult_simple(i, w))]
                steps.append((prev, "T", i))
        return steps

    monkeypatch.setattr(AlgebraContext, "_column_steps", wrong)


def right_T_oracle(ctx, i):
    """Columns of right multiplication by T_i (1-based) from the Hecke rule
    on the permutation alone: L^a T_w T_i is L^a T_{w s_i} when w s_i is
    longer than w, else q L^a T_{w s_i} + (q-1) L^a T_w."""
    d = ctx.domain
    q = ctx.q_val
    cols = []
    for exps, w in ctx.basis:
        wsi = right_mult_simple(w, i - 1)
        if perm_length(wsi) > perm_length(w):
            col = {ctx.index[(exps, wsi)]: d.one}
        else:
            col = {ctx.index[(exps, wsi)]: q, ctx.index[(exps, w)]: q - d.one}
        cols.append(d.nonzero(col))
    return cols


def corrupt_closed_form(monkeypatch):
    """Flip the sign of the (q-1) terms of the straightening closed form and
    forget that it was validated."""
    closed_form = hecke.straightening_closed_form

    def corrupted(a, b):
        return {key: c if key[2] else -c
                for key, c in closed_form(a, b).items()}

    monkeypatch.setattr(hecke, "straightening_closed_form", corrupted)
    monkeypatch.setattr(hecke, "_STRAIGHTENING_VALIDATED_THROUGH", -1)


class TestPermutations:
    def test_lengths(self):
        assert perm_length((0, 1, 2)) == 0
        assert perm_length((2, 1, 0)) == 3

    def test_reduced_words_multiply_back(self):
        from cyclohecke.hecke import left_mult_simple
        for w in all_permutations(4):
            word = reduced_word(w)
            assert len(word) == perm_length(w)
            cur = (0, 1, 2, 3)
            for i in reversed(word):
                cur = left_mult_simple(i, cur)
            assert cur == w


class TestStraighteningOracle:
    def test_closed_form_matches_one_step_rewriter(self):
        # the high-risk identity, validated for all exponents up to 4
        for a in range(5):
            for b in range(5):
                assert straightening_closed_form(a, b) == \
                    one_step_T_push(a, b), (a, b)

    def test_validate_runs(self):
        validate_straightening()

    def test_degree_one_rules(self):
        from cyclohecke.rings import LaurentPoly
        q = LaurentPoly.variable(0, 1)
        one = LaurentPoly.const(1, 1)
        # T L = M T - (q-1) M
        assert one_step_T_push(1, 0) == {
            (0, 1, True): one, (0, 1, False): -(q - 1)}
        # T M = L T + (q-1) M
        assert one_step_T_push(0, 1) == {
            (1, 0, True): one, (0, 1, False): q - 1}

    def test_corrupted_closed_form_rejected_at_build(self, monkeypatch):
        corrupt_closed_form(monkeypatch)
        with pytest.raises(EngineError, match="straightening mismatch"):
            AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                           [Fraction(2), Fraction(5)], self_check=False)

    def test_every_exponent_a_context_uses_is_validated(self, monkeypatch):
        # a closed form wrong only at exponent 5: level 5 uses exponents
        # up to 4 and builds, level 6 uses 5 and must be rejected
        closed_form = hecke.straightening_closed_form

        def corrupted(a, b):
            return {key: c if key[2] or 5 not in (a, b) else -c
                    for key, c in closed_form(a, b).items()}

        monkeypatch.setattr(hecke, "straightening_closed_form", corrupted)
        monkeypatch.setattr(hecke, "_STRAIGHTENING_VALIDATED_THROUGH", -1)
        Qs = [Fraction(k) for k in range(2, 8)]
        AlgebraContext(2, 5, RationalDomain(), Fraction(3), Qs[:5])
        with pytest.raises(EngineError,
                           match=r"straightening mismatch at exponents \(0, 5\)"):
            AlgebraContext(2, 6, RationalDomain(), Fraction(3), Qs,
                           self_check=False)

    def test_T_matrices_are_built_from_the_closed_form(self, monkeypatch):
        # with the oracle bypassed, the corrupted closed form reaches the T
        # matrices: so the oracle validates the code that builds them
        corrupt_closed_form(monkeypatch)
        monkeypatch.setattr(hecke, "_STRAIGHTENING_VALIDATED_THROUGH", 4)
        ctx = AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)], self_check=False)
        monkeypatch.undo()
        good = AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                              [Fraction(2), Fraction(5)], self_check=False)
        assert ctx._matrices[("T", 0)] != good._matrices[("T", 0)]
        assert ctx._matrices[("L", 1)] == good._matrices[("L", 1)]
        assert not check_relations(ctx).passed


class TestMultiplication:
    def test_quadratic_relation(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 1)
        T1 = ctx.T(1)
        q = ctx.q_val
        expected = (q - ctx.domain.one) * T1 + q * ctx.one()
        assert T1 * T1 == expected

    def test_T1_times_L1(self, symbolic_ctx):
        # T_1 L_1 = L_2 T_1 - (q-1) L_2, independently derivable from the
        # one-step exchange rules
        ctx = symbolic_ctx(2, 2)
        T1, L1, L2 = ctx.T(1), ctx.jm_element(1), ctx.jm_element(2)
        qm1 = ctx.q_val - ctx.domain.one
        assert T1 * L1 == L2 * T1 - qm1 * L2

    def test_cyclotomic_relation_degree_2(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 2)
        L1 = ctx.jm_element(1)
        Q1, Q2 = ctx.Q_vals
        assert L1 * L1 == (Q1 + Q2) * L1 - (Q1 * Q2) * ctx.one()

    def test_pbw_basis_size(self, rational_ctx):
        import math
        for n, r in [(1, 1), (2, 1), (2, 2), (3, 1), (2, 3)]:
            ctx = rational_ctx(n, r, Fraction(2), [Fraction(k + 2)
                                                   for k in range(r)])
            assert ctx.dim == r ** n * math.factorial(n)

    def test_context_mismatch_rejected(self, rational_ctx):
        a = rational_ctx(2, 1, Fraction(2), [1])
        b = rational_ctx(2, 1, Fraction(3), [1])
        with pytest.raises(ValueError):
            a.one() + b.one()


class TestProductOracle:
    """ctx.multiply against the literal per-word product; symbolic
    coefficients are Laurent polynomials in canonical form, so dict equality
    is exact in every domain."""

    @pytest.fixture(scope="class", params=[
        "rational-2-3", "rational-3-2", "cyclotomic3-2-2", "symbolic-2-2"])
    def ctx(self, request, symbolic_ctx):
        if request.param == "symbolic-2-2":
            return symbolic_ctx(2, 2)
        if request.param == "cyclotomic3-2-2":
            d = CyclotomicDomain(3)
            return AlgebraContext(2, 2, d, d.zeta(1), [d.zeta(0), d.zeta(1)])
        n, r = map(int, request.param.split("-")[1:])
        return AlgebraContext(n, r, RationalDomain(), Fraction(3, 2),
                              [Fraction(k + 2, 3) for k in range(r)])

    def test_random_elements(self, ctx):
        rng = random.Random(7)
        trials = 5 if ctx.domain.name.startswith("laurent") else 20
        for _ in range(trials):
            x = _random_element(ctx, rng, max_terms=6)
            y = _random_element(ctx, rng, max_terms=6)
            assert product_vector(ctx, x, y) == literal_product(ctx, x, y)

    def test_full_support_left_factors(self, ctx):
        rng = random.Random(8)
        y = _random_element(ctx, rng)
        e_n = ctx.symmetric_jm(ctx.n)
        xy = _random_element(ctx, rng) * _random_element(ctx, rng)
        full = AlgebraElement(
            ctx, dict.fromkeys(range(ctx.dim), ctx.domain.one))
        for left in (e_n, xy, full):
            assert product_vector(ctx, left, y) == \
                literal_product(ctx, left, y)

    def test_right_multiplication_matrix(self, ctx):
        x = _random_element(ctx, random.Random(11), max_terms=6)
        assert ctx.right_multiplication_matrix(x) == [
            literal_product(ctx, ctx.basis_element(j), x)
            for j in range(ctx.dim)]

    def test_zero_and_one(self, ctx):
        x = _random_element(ctx, random.Random(9), max_terms=6)
        zero, one = ctx.zero(), ctx.one()
        assert ctx.multiply(zero, x).is_zero()
        assert ctx.multiply(x, zero).is_zero()
        assert product_vector(ctx, one, x) == literal_product(ctx, one, x)
        assert product_vector(ctx, x, one) == literal_product(ctx, x, one)
        assert ctx.multiply(one, x) == x
        assert ctx.multiply(x, one) == x

    def test_literal_factor_order_on_corrupted_matrices(self, monkeypatch):
        # with a corrupted T matrix the L_i need not commute; the product
        # must still be the literal per-word map, not a reordering of it
        corrupt_straightening(monkeypatch)
        ctx = AlgebraContext(3, 2, RationalDomain(), Fraction(3, 2),
                             [Fraction(2, 3), Fraction(1)], self_check=False)
        rng = random.Random(10)
        x = AlgebraElement(
            ctx, dict.fromkeys(range(ctx.dim), ctx.domain.one))
        for _ in range(5):
            y = _random_element(ctx, rng)
            assert product_vector(ctx, x, y) == literal_product(ctx, x, y)


class TestRightMultiplication:
    """The column recurrence of right_multiplication_matrix against the
    Hecke rule on permutations, with r >= 2 so the L-part columns are
    built too."""

    @pytest.mark.parametrize("kind,n,r", [
        ("rational", 3, 2), ("cyclotomic", 3, 2), ("prime", 4, 3),
        ("symbolic", 3, 2)])
    def test_right_T_matches_hecke_rule(self, kind, n, r):
        ctx = _differential_context(kind, n, r)
        assert check_relations(ctx).passed
        for i in range(1, n):
            assert ctx.right_multiplication_matrix(ctx.T(i)) == \
                right_T_oracle(ctx, i), (kind, i)


class TestProductWork:
    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2)])
    def test_full_support_applications(self, n, r):
        # every word of the left factor applied to the last basis word, on
        # an unchecked context: the per-word product is the literal one
        ctx = AlgebraContext(n, r, RationalDomain(), Fraction(3, 2),
                             [Fraction(k + 2, 3) for k in range(r)],
                             self_check=False)
        x = AlgebraElement(
            ctx, dict.fromkeys(range(ctx.dim), ctx.domain.one))
        y = ctx.basis_element(ctx.dim - 1)
        assert ctx.multiply(x, y).terms == literal_product(ctx, x, y)


class TestJMElements:
    def test_L1_is_basis_word(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 2)
        L1 = ctx.jm_element(1)
        assert [ctx.basis[k] for k in L1.terms] == [((1, 0), (0, 1))]

    def test_L2_r1_normal_form(self, symbolic_ctx):
        # r = 1: L_1 = Q_1, so L_2 = q^{-1} Q_1 T_1^2
        ctx = symbolic_ctx(2, 1)
        L2 = ctx.jm_element(2)
        q, Q1 = ctx.q_val, ctx.Q_vals[0]
        T1 = ctx.T(1)
        q_inv = ctx.domain.inv(q)
        assert L2 == q_inv * Q1 * (T1 * T1)

    def test_L2_min_poly_from_eigenvalue_oracle(self, rational_ctx):
        # eigenvalues of L_2 are the alpha values q^(b-a) Q_c at the node of
        # entry 2, over all standard tableaux; their distinct product
        # annihilates L_2 at generic parameters
        from cyclohecke.combinatorics import (
            enumerate_multipartitions, enumerate_standard_tableaux)
        ctx = rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)])
        values = set()
        for mp in enumerate_multipartitions(2, 2):
            for t in enumerate_standard_tableaux(mp):
                (node,) = [nd for nd, entry in t.items() if entry == 2]
                a, b, c = node
                values.add(Fraction(3) ** (b - a) * ctx.Q_vals[c - 1])
        L2 = ctx.jm_element(2)
        prod = ctx.one()
        for v in sorted(values):
            prod = prod * (L2 - v * ctx.one())
        assert prod.is_zero()

    @pytest.mark.parametrize("n,r", [(4, 1), (3, 2)])
    def test_apply_L_matches_the_definition(self, rational_ctx, n, r):
        # at r = 1 no PBW word has an L factor, so reconstruction never
        # applies L_2..L_n: compare them with literal_L on every word
        ctx = rational_ctx(n, r, Fraction(3, 2),
                           [Fraction(k + 2, 3) for k in range(r)])
        one = ctx.domain.one
        for i in range(1, n + 1):
            for j in range(ctx.dim):
                assert ctx._apply_L(i, {j: one}) == \
                    literal_L(ctx, i, {j: one}), (i, ctx.basis[j])

    def test_symmetric_jm_small(self, symbolic_ctx):
        ctx = symbolic_ctx(1, 2)
        assert ctx.symmetric_jm(1) == ctx.jm_element(1)

    def test_e2_n2_r1_normal_form(self, symbolic_ctx):
        # e_2 = L_1 L_2 = q^{-1} Q_1^2 T_1^2
        ctx = symbolic_ctx(2, 1)
        q, Q1 = ctx.q_val, ctx.Q_vals[0]
        T1 = ctx.T(1)
        expected = ctx.domain.inv(q) * (Q1 * Q1) * (T1 * T1)
        assert ctx.symmetric_jm(2) == expected

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1)])
    def test_symmetric_jm_central_symbolically(self, symbolic_ctx, n, r):
        ctx = symbolic_ctx(n, r)
        gens = ctx.generators()
        for k in range(1, n + 1):
            ek = ctx.symmetric_jm(k)
            for g in gens:
                assert (ek * g - g * ek).is_zero(), (n, r, k)


def _cyclo_red_contexts(r):
    rat = RationalDomain()
    cyc = CyclotomicDomain(5)
    return [
        AlgebraContext(1, r, rat, Fraction(3),
                       [Fraction(2 * i - 5, i + 1) for i in range(r)]),
        AlgebraContext(1, r, cyc, cyc.zeta(1),
                       [cyc.zeta(i) + cyc.from_int(i) for i in range(r)]),
        symbolic_context(1, r),
    ]


class TestCyclotomicReduction:
    @pytest.mark.parametrize("r", range(1, 6))
    def test_matches_expanded_product(self, r):
        # oracle: expand prod_i (x - Q_i) factor by factor, ascending
        # coefficients; L_1^r = -(lower part of that product)
        for ctx in _cyclo_red_contexts(r):
            d = ctx.domain
            poly = [d.one]
            for Q in ctx.Q_vals:
                shifted = [d.zero] + poly
                poly = [a - Q * b for a, b in zip(shifted, poly + [d.zero])]
            assert poly[r] == d.one
            assert ctx.cyclo_red == [-c for c in poly[:r]], (d.name, r)


class TestInvert:
    def test_invert_one(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(2), [1])
        assert ctx.invert(ctx.one()) == ctx.one()

    @staticmethod
    def T1_inverse_formula(ctx):
        # from the quadratic relation: T_1^{-1} = q^{-1} T_1 - (1 - q^{-1})
        q_inv = ctx.domain.inv(ctx.q_val)
        return q_inv * ctx.T(1) - (ctx.domain.one - q_inv) * ctx.one()

    def test_T1_inverse_formula_symbolic(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 1)
        T1, inv = ctx.T(1), self.T1_inverse_formula(ctx)
        assert T1 * inv == ctx.one()
        assert inv * T1 == ctx.one()

    def test_invert_T1(self, rational_ctx):
        ctx = rational_ctx(2, 1, Fraction(3), [1])
        assert ctx.invert(ctx.T(1)) == self.T1_inverse_formula(ctx)

    def test_invert_top_jm(self, rational_ctx):
        ctx = rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(7)])
        en = ctx.symmetric_jm(2)
        inv = ctx.invert(en)
        assert en * inv == ctx.one()
        assert inv * en == ctx.one()

    def test_singular_rejected(self, rational_ctx):
        from cyclohecke.rings import NotInvertibleError
        ctx = rational_ctx(2, 1, Fraction(2), [1])
        with pytest.raises(NotInvertibleError):
            ctx.invert(ctx.zero())

    def test_two_sided_check_catches_a_wrong_product(self, rational_ctx,
                                                     monkeypatch):
        # the solve reads only right_multiplication_matrix; a faulty
        # multiply must still fail the x z = z x = 1 check
        from cyclohecke.rings import NotInvertibleError
        ctx = rational_ctx(2, 1, Fraction(3), [1])
        monkeypatch.setattr(AlgebraContext, "multiply",
                            lambda self, x, y: self.zero())
        with pytest.raises(NotInvertibleError):
            ctx.invert(ctx.T(1))


class TestSymmetricJMInverse:
    """The operator-built e_n^{-1} against the elimination oracle over fields,
    and as a two-sided inverse with Laurent coefficients symbolically."""

    @pytest.mark.parametrize("n,r", [(4, 1), (2, 2), (3, 2)])
    def test_matches_invert_rational(self, rational_ctx, n, r):
        ctx = rational_ctx(n, r, Fraction(3, 2),
                           [Fraction(k + 2, 3) for k in range(r)])
        assert ctx.symmetric_jm_inverse() == \
            ctx.invert(ctx.symmetric_jm(n))

    def test_matches_invert_cyclotomic(self):
        d = CyclotomicDomain(3)
        ctx = AlgebraContext(2, 2, d, d.zeta(1), [d.zeta(0), d.zeta(1)])
        assert ctx.symmetric_jm_inverse() == \
            ctx.invert(ctx.symmetric_jm(2))

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1)])
    def test_symbolic_two_sided_with_monomial_denominators(
            self, symbolic_ctx, n, r):
        ctx = symbolic_ctx(n, r)
        inv, en = ctx.symmetric_jm_inverse(), ctx.symmetric_jm(n)
        assert inv * en == ctx.one()
        assert en * inv == ctx.one()
        assert all(isinstance(c, LaurentPoly) for c in inv.terms.values())

    def test_cached(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 2)
        assert ctx.symmetric_jm_inverse() is ctx.symmetric_jm_inverse()


def _operator_context(kind):
    rat = RationalDomain()
    cyc = CyclotomicDomain(3)
    return {
        "rat41": lambda: AlgebraContext(4, 1, rat, Fraction(3, 2),
                                        [Fraction(2)]),
        "rat32": lambda: AlgebraContext(3, 2, rat, Fraction(3),
                                        [Fraction(2), Fraction(5)]),
        "zeta3-22": lambda: AlgebraContext(2, 2, cyc, cyc.zeta(1),
                                           [cyc.zeta(0), cyc.zeta(2)]),
        "q1-22": lambda: AlgebraContext(2, 2, rat, Fraction(1),
                                        [Fraction(2), Fraction(5)]),
    }[kind]()


class TestSymmetricJMOperators:
    """apply_symmetric_jm and apply_symmetric_jm_inverse on non-identity
    vectors against products: e_k built by multiplying the L_i elements,
    and e_n^{-1} from the elimination oracle invert."""

    @pytest.mark.parametrize("kind", ["rat41", "rat32", "zeta3-22", "q1-22"])
    def test_match_products(self, kind):
        ctx = _operator_context(kind)
        row = elementary_symmetric(
            [ctx.jm_element(i) for i in range(1, ctx.n + 1)], ctx.one())
        e_inv = ctx.invert(row[ctx.n])
        words = [ctx.basis_element(j)
                 for j in range(1, ctx.dim, max(1, ctx.dim // 7))]
        central = center_basis(ctx)[-1]
        assert len(central.terms) > 1
        for x in words + [central]:
            got = ctx.apply_symmetric_jm(x.terms)
            assert len(got) == ctx.n
            for k, vec in enumerate(got, start=1):
                assert AlgebraElement(ctx, vec) == row[k] * x, (k, x)
            assert AlgebraElement(
                ctx, ctx.apply_symmetric_jm_inverse(x.terms)) == e_inv * x

    def test_input_not_modified(self, rational_ctx):
        ctx = rational_ctx(3, 2, Fraction(3), [Fraction(2), Fraction(5)])
        vec = {5: Fraction(2), 17: Fraction(-1)}
        ctx.apply_symmetric_jm(vec)
        ctx.apply_symmetric_jm_inverse(vec)
        assert vec == {5: Fraction(2), 17: Fraction(-1)}


class TestTrace:
    def test_trace_examples(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 1)
        assert ctx.one().tau() == ctx.domain.one
        assert ctx.domain.is_zero(ctx.T(1).tau())
        # T_1^2 = (q-1) T_1 + q, so tau(T_1^2) = q
        assert (ctx.T(1) * ctx.T(1)).tau() == ctx.q_val

    def test_pairing_examples(self, symbolic_ctx):
        ctx = symbolic_ctx(2, 1)
        assert (ctx.one() * ctx.one()).tau() == ctx.domain.one
        assert (ctx.T(1) * ctx.T(1)).tau() == ctx.q_val
        assert ctx.domain.is_zero((ctx.T(1) * ctx.one()).tau())

    def test_trace_symmetry_random(self, rational_ctx):
        ctx = rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)])
        rng = random.Random(0)
        for _ in range(200):
            x = _random_element(ctx, rng)
            y = _random_element(ctx, rng)
            assert (x * y).tau() == (y * x).tau()


class TestRelations:
    def test_pass_cases(self, rational_ctx):
        rep = check_relations(
            rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)]))
        assert rep.passed
        rep = check_relations(rational_ctx(3, 1, Fraction(-1), [Fraction(1)]))
        assert rep.passed

    def test_corrupted_straightening_fails_with_witness(self, monkeypatch):
        corrupt_straightening(monkeypatch)
        ctx = AlgebraContext(
            2, 2, RationalDomain(), Fraction(3), [Fraction(2), Fraction(5)],
            self_check=False)
        rep = check_relations(ctx)
        assert rep.status == "fail"
        assert rep.witnesses
        text = str(rep.witnesses[0])
        assert "L1" in text or "L2" in text

    def test_self_check_rejects_corruption_at_build(self, monkeypatch):
        corrupt_straightening(monkeypatch)
        with pytest.raises(EngineError):
            AlgebraContext(
                2, 2, RationalDomain(), Fraction(3),
                [Fraction(2), Fraction(5)])

    def test_q_equals_one_still_consistent(self):
        ctx = AlgebraContext(2, 2, RationalDomain(), Fraction(1),
                             [Fraction(2), Fraction(5)])
        assert check_relations(ctx).passed


class TestCertificate:
    """Relations plus PBW reconstruction, and the faults only
    reconstruction can see."""

    def test_only_the_generators_are_stored(self):
        ctx = AlgebraContext(4, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)], self_check=False)
        assert set(ctx._matrices) == {("T", 0), ("T", 1), ("T", 2),
                                      ("L", 1)}

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 1)])
    def test_conjugated_generators_fail_reconstruction_only(self, n, r):
        ctx = AlgebraContext(n, r, RationalDomain(), Fraction(3),
                             [Fraction(k + 2) for k in range(r)],
                             self_check=False)
        conjugate_generators(ctx, 1, 2)
        # the relation families run first and stop at their first failure,
        # so a reconstruction witness means every one of them passed
        rep = check_relations(ctx)
        assert rep.status == "fail"
        assert rep.witnesses[0]["relation"] == "reconstruction"
        assert rep.witnesses[0]["word"] == ctx.basis_element(1).render()
        assert rep.params["reconstructed"] == 1

    def test_conjugated_generators_rejected_at_build(self, monkeypatch):
        build = AlgebraContext._build_matrices

        def conjugated(self):
            build(self)
            conjugate_generators(self, 1, 2)

        monkeypatch.setattr(AlgebraContext, "_build_matrices", conjugated)
        with pytest.raises(EngineError, match="reconstruction"):
            AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                           [Fraction(2), Fraction(5)])

    def test_l_before_t_recurrence_fails_reconstruction(self, monkeypatch):
        l_before_t_recurrence(monkeypatch)
        ctx = AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)], self_check=False)
        rep = check_relations(ctx)
        assert rep.status == "fail"
        witness = rep.witnesses[0]
        assert witness["relation"] == "reconstruction"
        # the first word with both an L and a T factor: T_1 L_2 != L_2 T_1
        assert witness["word"] == "(1) * L2*T[2,1]"
        assert rep.params["reconstructed"] == 3
        with pytest.raises(EngineError, match="reconstruction"):
            AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                           [Fraction(2), Fraction(5)])

    def test_l_before_t_recurrence_reaches_multiply(self, monkeypatch):
        # multiply walks the certified column steps, so the fault that
        # reconstruction rejects also moves the product off the literal one
        l_before_t_recurrence(monkeypatch)
        ctx = AlgebraContext(2, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)], self_check=False)
        x = ctx.basis_element(ctx.index[((0, 1), (1, 0))])
        assert x.render() == "(1) * L2*T[2,1]"
        y = ctx.one()
        assert product_vector(ctx, x, y) != literal_product(ctx, x, y)

    def test_apply_L_without_q_inverse_fails_at_r1(self, monkeypatch):
        # at r = 1 reconstruction never applies L_2..L_n; only the
        # conjugation check on the identity word sees the fault
        apply_L = AlgebraContext._apply_L

        def unscaled(self, i, vec):
            vec = apply_L(self, i, vec)
            return self.domain.scale(vec, self.q_val ** (i - 1))

        monkeypatch.setattr(AlgebraContext, "_apply_L", unscaled)
        ctx = AlgebraContext(3, 1, RationalDomain(), Fraction(3),
                             [Fraction(2)], self_check=False)
        rep = check_relations(ctx)
        assert rep.status == "fail"
        assert rep.params["reconstructed"] == ctx.dim
        (witness,) = rep.witnesses
        assert witness["relation"] == "conjugation q L2 = T1 L1 T1"
        assert witness["word"] == ctx.one().render()
        with pytest.raises(EngineError, match="conjugation q L2 = T1 L1 T1"):
            AlgebraContext(3, 1, RationalDomain(), Fraction(3), [Fraction(2)])

    @pytest.mark.parametrize("fault,n,failing", [
        (fault_T3_is_T2, 4, ["commute T1 T3"]),
        (fault_conjugated_L1, 2, ["commute L1 L2"]),
        (fault_conjugated_L1, 4,
         ["commute L1 L2", "commute T2 L1", "commute T3 L1"]),
        (fault_T3_is_T1, 4, ["commute T3 L1"]),
        (fault_T2_other_root, 4, ["braid T1 T2", "braid T2 T3"]),
        (fault_scaled_T, 4, ["quadratic T1", "quadratic T2", "quadratic T3"]),
        (fault_scaled_L, 4, ["cyclotomic prod (L1 - Qi)"]),
    ], ids=lambda v: v.__name__[len("fault_"):] if callable(v) else None)
    def test_each_family_catches_its_fault(self, fault, n, failing):
        """Each fault breaks one family of the presentation and keeps every
        other family, so the first witness names that family. A fault in T_i
        or L_1 reaches every higher L_i, which are applied from them."""
        ctx = AlgebraContext(n, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)], self_check=False)
        fault(ctx)
        assert failing_families(ctx) == failing
        rep = check_relations(ctx)
        assert rep.status == "fail"
        assert rep.witnesses[0]["relation"] == failing[0]
        assert rep.params["reconstructed"] == 0

    @pytest.mark.parametrize("n,r", [(6, 1), (4, 3)])
    def test_build_gate_reach(self, monkeypatch, n, r):
        """PBW dimensions 720 and 1944, certified at build."""
        reports = []
        check = hecke.check_relations

        def spy(ctx):
            reports.append(check(ctx))
            return reports[-1]

        monkeypatch.setattr(hecke, "check_relations", spy)
        ctx = AlgebraContext(n, r, RationalDomain(), Fraction(3),
                             [Fraction(k + 2) for k in range(r)])
        (rep,) = reports
        assert rep.passed
        assert rep.params["reconstructed"] == ctx.dim

    def test_build_gate_is_the_certificate(self, monkeypatch):
        calls = []
        check = hecke.check_relations

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return check(*args, **kwargs)

        monkeypatch.setattr(hecke, "check_relations", spy)
        ctx = AlgebraContext(3, 2, RationalDomain(), Fraction(3),
                             [Fraction(2), Fraction(5)])
        # one call with the context alone: relations plus reconstruction
        assert calls == [((ctx,), {})]
        rep = check(ctx)
        assert rep.passed
        assert rep.params == {"n": 3, "r": 2, "domain": "rational",
                              "reconstructed": ctx.dim}


def _differential_context(kind, n, r, q=3):
    """A fresh context without its build gate: over F_p, Q, Q(zeta_3) or
    the Laurent ring."""
    if kind == "symbolic":
        return symbolic_context(n, r, self_check=False)
    if kind == "cyclotomic":
        d = CyclotomicDomain(3)
        return AlgebraContext(n, r, d, d.zeta(1),
                              [d.one, d.zeta(1)][:r], self_check=False)
    d = PrimeFieldDomain() if kind == "prime" else RationalDomain()
    return AlgebraContext(n, r, d, d.from_int(q),
                          [d.from_int(Q) for Q in (2, 5, 7, 11)[:r]],
                          self_check=False)


def fault_last_column(key):
    """One entry added at basis index 0 of the last column of the stored
    matrix key."""
    def fault(ctx):
        d = ctx.domain
        cols = ctx._matrices[key]
        col = dict(cols[-1])
        d.add_scaled(col, {0: d.one})
        ctx._matrices[key] = cols[:-1] + [col]
    return fault


def fault_off_root(key):
    """One entry doubled in the column of the stored matrix key at the first
    basis word that is not a root of {key}: a word the relation phase
    reaches only from a root, never evaluates on (for L_1, a word with an
    L_1 factor). Returns that word."""
    def fault(ctx):
        d = ctx.domain
        cols = list(ctx._matrices[key])
        roots = hecke._roots([hecke._steps(d, cols)], ctx.dim)
        b = next(b for b in range(ctx.dim) if b not in roots)
        col = dict(cols[b])
        k = min(col)
        col[k] = d.from_int(2) * col[k]
        cols[b] = col
        ctx._matrices[key] = cols
        return b
    return fault


def _differential_cases():
    contexts = [("prime", 4, 1, 3), ("prime", 2, 4, 3), ("prime", 3, 2, 3),
                ("rational", 3, 2, 3), ("rational", 4, 1, 2),
                ("rational", 4, 1, -1), ("rational", 4, 1, 1),
                ("cyclotomic", 3, 1, None), ("cyclotomic", 2, 2, None),
                ("symbolic", 2, 2, None), ("symbolic", 3, 1, None)]
    for kind, n, r, q in contexts:
        faults = [
            ("none", lambda ctx: None),
            ("conjugated_L1", fault_conjugated_L1),
            ("scaled_L", fault_scaled_L),
            ("conjugate_generators",
             lambda ctx: conjugate_generators(ctx, 1, 2)),
            ("last_column_L1", fault_last_column(("L", 1))),
        ]
        faults += [(f"last_column_T{i + 1}", fault_last_column(("T", i)))
                   for i in range(n - 1)]
        if n >= 2:
            faults += [("scaled_T", fault_scaled_T),
                       ("off_root_T1", fault_off_root(("T", 0)))]
        if r >= 2:
            faults.append(("off_root_L1", fault_off_root(("L", 1))))
        if n >= 3:
            faults.append(("T2_other_root", fault_T2_other_root))
        if n >= 4:
            faults += [("T3_is_T2", fault_T3_is_T2),
                       ("T3_is_T1", fault_T3_is_T1)]
        label = f"{kind}-{n}-{r}" + (f"-q{q}" if kind == "rational" else "")
        for name, fault in faults:
            yield pytest.param(kind, n, r, q, fault, id=f"{label}-{name}")


class TestColumnGate:
    """The relation phase on the root words against the unit-vector
    oracle, the roots themselves, and the phase's cost in matrix
    applications."""

    @pytest.mark.parametrize("kind,n,r,q,fault", _differential_cases())
    def test_agrees_with_unit_vector_oracle(self, kind, n, r, q, fault):
        """The gate fails exactly when the oracle finds a failing word of
        any family. It names the first failing family in its own order, at
        a word where the oracle finds that family failing, with the
        oracle's residual there. A fault in a column off the roots, which
        the gate never evaluates, is a failure for both."""
        ctx = _differential_context(kind, n, r, q)
        off_root = fault(ctx)
        failures = oracle_failures(ctx)
        assert off_root is None or failures
        rep = check_relations(ctx)
        witness = hecke._presentation_witness(ctx)
        if not failures:
            assert witness is None
            assert rep.passed or rep.witnesses[0]["relation"].startswith(
                ("reconstruction", "conjugation"))
            return
        assert rep.status == "fail"
        assert rep.params["reconstructed"] == 0
        assert rep.witnesses == [witness]
        order = [name for name, *_ in hecke._presentation(ctx)]
        name = next(name for name in order if name in failures)
        assert witness["relation"] == name
        residuals = {}
        for j, diff in failures[name].items():
            if name == "commute L1 L2":
                # T_0 T_1 T_0 T_1 - T_1 T_0 T_1 T_0 = q (L_1 L_2 - L_2 L_1)
                diff = ctx.domain.scale(diff, ctx.q_val)
            residuals[ctx.basis_element(j).render()] = AlgebraElement(
                ctx, diff).render()
        assert residuals[witness["word"]] == witness["residual"]

    @pytest.mark.parametrize("n,r,q", [
        (4, 1, 3), (4, 1, 1), (5, 1, -1), (5, 1, 1), (3, 2, 3), (3, 2, 1),
        (2, 4, 3)])
    def test_roots_reach_every_word(self, n, r, q):
        """Every basis word is reached from the roots of each generator set
        the relation phase uses, along single-entry columns c e_c' with
        c != 0 and c' != b, at q = 1 (two-cycles, no sources) too. At
        r = 1 there is one root per orbit of the parabolic subgroup: n!/2
        for one T_i, n!/4 for a commuting pair, n!/6 for a braid pair;
        every word is a root of the scalar L_1."""
        ctx = _differential_context("rational", n, r, q)
        d = ctx.domain
        sets = [[("L", 1)]] + [[("T", i)] for i in range(n - 1)]
        sets += [[("T", i), ("T", j)] for i in range(n - 1)
                 for j in range(i + 1, n - 1)]
        for keys in sets:
            mats = [ctx._matrices[key] for key in keys]
            roots = hecke._roots([hecke._steps(d, m) for m in mats],
                                 ctx.dim)
            reached, stack = set(roots), list(roots)
            while stack:
                b = stack.pop()
                for cols in mats:
                    if len(cols[b]) == 1:
                        ((c, x),) = cols[b].items()
                        if c not in reached and not d.is_zero(x):
                            reached.add(c)
                            stack.append(c)
            assert reached == set(range(ctx.dim)), keys
            if r == 1:
                if len(keys) == 2:
                    size = 6 if keys[1][1] - keys[0][1] == 1 else 4
                else:
                    size = 1 if keys[0][0] == "L" else 2
                assert len(roots) == ctx.dim // size, keys
            elif keys == [("L", 1)]:
                assert roots == [b for b, (exps, _) in enumerate(ctx.basis)
                                 if exps[0] == 0]

    @pytest.mark.parametrize("n,r,total", [
        # 3 quadratics on n!/2 = 12 roots, 1 application each; the
        # cyclotomic relation costs r - 1 = 0; T1 T3 on n!/4 = 6 roots, 2
        # each; two braids on n!/6 = 4 roots, 4 each; at r = 1 no L1
        # commutation: 36 + 12 + 32 = 80 (552 on every column)
        (4, 1, 80),
        # T_1 has 7 single-entry columns: T_1 L_1^a L_2^a = L_1^a L_2^a T_1
        # (a = 0..3) and T_1 L_1^(a+1) L_2^a T_1 = q L_1^a L_2^(a+1)
        # (a = 0..2), so 32 - 7 = 25 roots of {T_1}; 8 roots of {L_1}, the
        # words without L_1. The quadratic 25 * 1, the cyclotomic relation
        # 8 * (r - 1) = 24, T0 T1 T0 T1 on the roots of {T_1} 25 * 6 = 150
        # (320 on every column)
        (2, 4, 25 + 24 + 150),
    ])
    def test_relation_phase_cost(self, monkeypatch, n, r, total):
        """One apply_cols per root for each factor of a side beyond its
        rightmost: no unit vectors, no expanded products and no non-root
        columns."""
        ctx = _differential_context("prime", n, r)
        calls = []
        apply_cols = ctx.domain.apply_cols

        def counting(cols, vec):
            calls.append(len(vec))
            return apply_cols(cols, vec)

        monkeypatch.setattr(ctx.domain, "apply_cols", counting)
        assert hecke._presentation_witness(ctx) is None
        assert len(calls) == total

"""The prime-field certificate of `hilb` and `center` and the prime-field
route of `blocks`: the switch between the F_p results and the exact
fallback, its faults, the prime and the map at roots of unity, and the
range of every entry an F_p context stores.

Setting the module prime to 1 forces the exact path: 1 divides every
numerator and denominator, so the prime is refused for every rational
specialization, and no prime p <= 1 has p = 1 mod ell."""

import dataclasses
import json
from fractions import Fraction

import pytest

from types import SimpleNamespace

from cyclohecke import center, ktheory, rings
from cyclohecke.center import center_and_jm_span, commutator_coordinates
from cyclohecke.cli import main
from cyclohecke.hecke import AlgebraContext
from cyclohecke.rings import CyclotomicDomain, PrimeFieldDomain


def run(argv, capsys):
    """Exit code and stdout of one CLI invocation."""
    code = main(argv.split())
    return code, capsys.readouterr().out


def forced_exact(argv, capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(rings, "PRIME", 1)
        return run(argv, capsys)


@pytest.fixture
def built(monkeypatch):
    """The domain class names of the contexts built, in order."""
    names = []
    init = AlgebraContext.__init__

    def recording(self, n, r, domain, *args, **kwargs):
        names.append(type(domain).__name__)
        init(self, n, r, domain, *args, **kwargs)

    monkeypatch.setattr(AlgebraContext, "__init__", recording)
    return names


class TestSwitch:
    @pytest.mark.parametrize("argv", [
        "hilb --n 3 --q-values=-1/5",
        "center --n 2 --r 2 --q 3 --Q 5/2,7",
    ])
    def test_prime_dividing_a_parameter_takes_the_exact_path(
            self, monkeypatch, capsys, built, argv):
        monkeypatch.setattr(rings, "PRIME", 5)
        code, out = run(argv, capsys)
        assert built == ["RationalDomain"]
        assert (code, out) == forced_exact(argv, capsys, monkeypatch)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        f"hilb --n 3 --q-values {rings.PRIME + 1}",
        f"center --n 2 --r 2 --q {rings.PRIME + 1} --Q 2,5",
    ])
    def test_missed_bounds_fall_back(self, monkeypatch, capsys, built, argv):
        # q = 1 mod p: over F_p the JM elements lose the contents, so the
        # rank of the JM span falls below dim Z and the bounds miss
        code, out = run(argv, capsys)
        assert built == ["PrimeFieldDomain", "RationalDomain"]
        assert (code, out) == forced_exact(argv, capsys, monkeypatch)

    def test_certified_dimensions_skip_the_exact_path(self, capsys, built):
        assert run("hilb --n 4 --q-values 2", capsys)[0] == 0
        assert built == ["PrimeFieldDomain"]


GRID = (
    [f"hilb --n {n} --q-values 2,-1/2,4,-1,3/7" for n in range(1, 6)]
    + [f"center --n {n} --r {r} --q 3 --Q {Qs}"
       for n, r, Qs in [(2, 2, "2,5"), (2, 3, "2,5,7"), (3, 2, "2,5")]]
    + [f"--seed {seed} center --n {n} --r {r} --q generic --Q "
       + ",".join(["generic"] * r)
       for n, r in [(2, 2), (2, 3), (3, 2)] for seed in range(3)])


@pytest.mark.parametrize("argv", GRID)
def test_prime_field_reports_equal_exact_reports(monkeypatch, capsys, argv):
    got = run(argv, capsys)
    assert got[0] == 0
    assert got == forced_exact(argv, capsys, monkeypatch)


def corrupt_prime_field_T(monkeypatch):
    """Fault: one entry of the F_p matrix of T_1 is off by one."""
    build = AlgebraContext._build_T_matrix

    def corrupted(self, i):
        cols = build(self, i)
        if isinstance(self.domain, PrimeFieldDomain) and i == 0:
            k = min(cols[-1])
            cols[-1][k] = cols[-1][k] % (self.domain.p - 1) + 1
        return cols

    monkeypatch.setattr(AlgebraContext, "_build_T_matrix", corrupted)


def drop_center_vector(monkeypatch):
    """Fault: every center basis comes back one vector short."""
    basis = center.center_basis
    monkeypatch.setattr(center, "center_basis",
                        lambda ctx: basis(ctx)[:-1])


CENTER_R4 = ("--samples 1 center --n 2 --r 4 --q generic "
             "--Q generic,generic,generic,generic")


class TestFaults:
    @pytest.mark.parametrize("argv, command", [
        ("hilb --n 3 --q-values 2", "hilb"),
        (CENTER_R4, "center"),
    ])
    def test_prime_field_matrix_fault_is_an_engine_error(
            self, monkeypatch, capsys, built, argv, command):
        corrupt_prime_field_T(monkeypatch)
        code, out = run(argv, capsys)
        assert code == 1
        (report,) = [json.loads(line) for line in out.splitlines()]
        assert report["check"] == "engine_error"
        assert report["params"] == {"command": command}
        assert report["witnesses"][0]["error"] == "EngineError"
        assert built == ["PrimeFieldDomain"]

    @pytest.mark.parametrize("argv", [
        CENTER_R4, "hilb --n 4 --q-values 2",
        "center --n 2 --r 2 --q 3 --Q 2,5"])
    def test_fallback_keeps_a_dropped_center_vector_failing(
            self, monkeypatch, capsys, built, argv):
        drop_center_vector(monkeypatch)
        code, out = run(argv, capsys)
        assert code == 1
        assert json.loads(out)["status"] == "fail"
        # the prime-field bounds miss, and the exact path fails as well
        assert built == ["PrimeFieldDomain", "RationalDomain"]


def test_prime_field_entries_are_reduced():
    """Every entry an F_p context stores or returns is an int in [1, p),
    at parameters with negative and fractional values."""
    d = PrimeFieldDomain()
    ctx = AlgebraContext(3, 2, d, d.from_fraction(Fraction(-1, 2)),
                         [d.from_fraction(x) for x in (-3, Fraction(5, 7))])
    center_space, span = center_and_jm_span(ctx)
    vectors = [col for cols in ctx._matrices.values() for col in cols]
    vectors += [ctx.symmetric_jm(k).terms for k in range(1, ctx.n + 1)]
    vectors.append(ctx.symmetric_jm_inverse().terms)
    vectors += [z.terms for z in center.center_basis(ctx)]
    vectors += list(center_space.rows.values())
    vectors += list(commutator_coordinates(ctx).span.rows.values())
    vectors += [x.terms for x in span.elements]
    assert center_space.rank == span.rank == 10
    entries = [x for vec in vectors for x in vec.values()]
    assert entries
    assert all(type(x) is int and 1 <= x < d.p for x in entries)


# ---------------------------------------------------------------------------
# roots of unity: F_p with p = 1 mod ell, zeta_ell -> omega
# ---------------------------------------------------------------------------

_CHARGES = {1: [(0,), (1,)], 2: [(0, 0), (0, 1), (1, 0)]}
BLOCKS_GRID = (
    [(n, r, ell, charge) for n in (1, 2, 3) for r in (1, 2)
     for ell in (2, 3, 4, 5) for charge in _CHARGES[r]]
    + [(4, 1, 4, (0,)), (4, 2, 2, (0, 1)), (4, 2, 3, (0, 1)),
       (4, 2, 4, (0, 1)), (5, 1, 2, (0,)), (5, 1, 3, (0,)),
       (3, 3, 3, (0, 1, 2))])


def blocks_argv(n, r, ell, charge):
    return (f"blocks --n {n} --r {r} --ell {ell} --charge "
            + ",".join(map(str, charge)))


def test_prime_is_one_mod_ell():
    """PRIME itself serves ell = 1, 2, 4, 7; the others search below it."""
    for ell in range(1, 13):
        domain, image = rings.prime_field_reduction(ell)
        p = domain.p
        assert rings._is_prime(p) and p % ell == 1 % ell
        assert (p == rings.PRIME) == (ell in (1, 2, 4, 7))
        larger = range(p + ell, rings.PRIME + 1, ell)
        assert not any(map(rings._is_prime, larger))
        zeta = rings.CyclotomicNumber.zeta(ell)
        omega = image(zeta)
        assert [pow(omega, k, p) == 1 for k in range(1, ell + 1)] == \
            [False] * (ell - 1) + [True]
        # a ring map: products and the cyclotomic relation survive
        x = zeta + Fraction(2, 3)
        y = zeta * 5 - 1
        assert image(x * y) == image(x) * image(y) % p
        assert image(x + y) == (image(x) + image(y)) % p


def test_primality_test_matches_trial_division():
    def trial(k):
        return k > 1 and all(k % d for d in range(2, int(k ** 0.5) + 1))
    assert [rings._is_prime(k) for k in range(3000)] == \
        [trial(k) for k in range(3000)]
    assert rings._is_prime(rings.PRIME)
    # strong pseudoprimes to base 2 alone
    assert not any(map(rings._is_prime, [2047, 3277, 4033, 4681, 8321]))


@pytest.mark.parametrize("case", BLOCKS_GRID,
                         ids=lambda c: blocks_argv(*c)[7:])
def test_blocks_prime_field_reports_equal_exact_reports(
        monkeypatch, capsys, built, case):
    argv = blocks_argv(*case)
    got = run(argv, capsys)
    assert got[0] == 0
    assert built == ["PrimeFieldDomain"]
    assert got == forced_exact(argv, capsys, monkeypatch)
    assert built[1:] == ["CyclotomicDomain"]


@pytest.mark.parametrize("argv, contexts", [
    ("hilb --n 5 --q-values zeta_3,zeta_4,zeta_5", 3),
    ("center --n 2 --r 2 --q zeta_3 --Q 1,zeta_3", 1),
])
def test_roots_of_unity_certify_over_the_prime_field(
        monkeypatch, capsys, built, argv, contexts):
    got = run(argv, capsys)
    assert got[0] == 0
    assert built == ["PrimeFieldDomain"] * contexts
    assert got == forced_exact(argv, capsys, monkeypatch)


BLOCKS = "blocks --n 3 --r 2 --ell 3 --charge 0,1"


class TestBlocksFallback:
    def test_no_prime_one_mod_ell_takes_the_exact_path(
            self, monkeypatch, capsys, built):
        # no prime p <= 7 has p = 1 mod 5
        monkeypatch.setattr(rings, "PRIME", 7)
        argv = "blocks --n 3 --r 2 --ell 5 --charge 0,1"
        code, out = run(argv, capsys)
        assert code == 0
        assert built == ["CyclotomicDomain"]
        assert (code, out) == forced_exact(argv, capsys, monkeypatch)

    def test_colliding_spectrum_rows_take_the_exact_path(
            self, monkeypatch, capsys, built):
        # for p = 1 mod ell the rows never meet (distinct multisets of
        # ell-th roots give distinct polynomials over F_p), so the fault is
        # the prime the search never picks: zeta_3 -> 1 is a ring map onto
        # F_3, where x^2 + x + 1 = (x - 1)^2, and it merges every row
        monkeypatch.setattr(rings, "_prime_and_root",
                            lambda bound, order: (3, 1))
        code, out = run(BLOCKS, capsys)
        assert code == 0
        assert built == ["CyclotomicDomain"]
        assert (code, out) == forced_exact(BLOCKS, capsys, monkeypatch)

    def test_rank_miss_over_the_prime_field_falls_back(
            self, monkeypatch, capsys, built):
        true_span = center.center_and_jm_span

        def short_over_fp(ctx):
            zspace, span = true_span(ctx)
            if isinstance(ctx.domain, PrimeFieldDomain):
                span = dataclasses.replace(
                    span, rank=span.rank - 1, elements=span.elements[:-1],
                    descriptors=span.descriptors[:-1])
            return zspace, span

        monkeypatch.setattr(center, "center_and_jm_span", short_over_fp)
        code, out = run(BLOCKS, capsys)
        assert code == 0
        assert built == ["PrimeFieldDomain", "CyclotomicDomain"]
        assert (code, out) == forced_exact(BLOCKS, capsys, monkeypatch)

    def test_prime_field_dimension_miss_falls_back(
            self, monkeypatch, capsys, built):
        # an F_p image dimension that differs from its class size is only
        # a failed F_p outcome: the exact split decides, and it passes
        split = ktheory.central_idempotents

        def bumped_over_fp(ctx, classes):
            idempotents, spectra, image_dims = split(ctx, classes)
            if isinstance(ctx.domain, PrimeFieldDomain):
                image_dims = [image_dims[0] + 1] + image_dims[1:]
            return idempotents, spectra, image_dims

        monkeypatch.setattr(ktheory, "central_idempotents", bumped_over_fp)
        code, out = run(BLOCKS, capsys)
        assert code == 0
        assert built == ["PrimeFieldDomain", "CyclotomicDomain"]
        assert (code, out) == forced_exact(BLOCKS, capsys, monkeypatch)

    def test_prime_field_matrix_fault_is_an_engine_error(
            self, monkeypatch, capsys, built):
        corrupt_prime_field_T(monkeypatch)
        code, out = run(BLOCKS, capsys)
        assert code == 1
        (report,) = [json.loads(line) for line in out.splitlines()]
        assert report["check"] == "engine_error"
        assert report["params"] == {"command": "blocks"}
        assert built == ["PrimeFieldDomain"]

    def test_corrupted_exact_row_fails_class_spectra(
            self, monkeypatch, capsys, built):
        # (3,1) at ell = 2: [3] and [1,1,1] form one class; bump e_1 of
        # the first multipartition, [3], in the exact rows only
        characters = ktheory.specialized_elementary_characters

        def bumped(point):
            mps, rows = characters(point)
            if isinstance(point.domain, CyclotomicDomain):
                rows[0] = [rows[0][0] + 1] + rows[0][1:]
            return mps, rows

        monkeypatch.setattr(ktheory, "specialized_elementary_characters",
                            bumped)
        argv = "blocks --n 3 --r 1 --ell 2 --charge 0"
        code, out = run(argv, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["witnesses"][0] == {
            "reason": "class spectra not constant", "residue": "(2, 1)"}
        assert built == ["CyclotomicDomain"]


class TestOneSpectrumTable:
    """verify_blocks computes the exact spectrum rows once, and the split
    of each route takes them: as they are, or reduced mod p."""

    def test_the_rows_are_computed_once(self, monkeypatch, capsys):
        characters = ktheory.specialized_elementary_characters
        calls = []

        def counted(point):
            calls.append(type(point.domain).__name__)
            return characters(point)

        for module in (center, ktheory):
            monkeypatch.setattr(module, "specialized_elementary_characters",
                                counted)
        code, _ = run("blocks --n 3 --r 1 --ell 2 --charge 0", capsys)
        assert code == 0
        assert calls == ["CyclotomicDomain"]

    def test_prime_field_split_takes_the_reduced_exact_rows(
            self, monkeypatch, capsys, built):
        split = ktheory.central_idempotents
        seen = []

        def spy(ctx, classes):
            seen.append(classes)
            return split(ctx, classes)

        monkeypatch.setattr(ktheory, "central_idempotents", spy)
        code, _ = run(BLOCKS, capsys)
        assert code == 0
        assert built == ["PrimeFieldDomain"]
        domain = CyclotomicDomain(3)
        point = SimpleNamespace(n=3, r=2, domain=domain, q_val=domain.zeta(1),
                                Q_vals=[domain.zeta(0), domain.zeta(1)])
        _, image, _, _ = rings.reduce_parameters(point.q_val, point.Q_vals)
        _, rows = center.specialized_elementary_characters(point)
        exact = dict.fromkeys(map(tuple, rows))
        assert len(exact) > 1
        assert seen == [[tuple(map(image, row)) for row in exact]]

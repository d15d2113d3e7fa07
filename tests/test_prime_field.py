"""The prime-field certificate of `hilb` and `center`: the switch between
the F_p dimensions and the exact fallback, its faults, and the range of
every entry an F_p context stores.

Setting the module prime to 1 forces the exact path: 1 divides every
numerator and denominator, so the prime is refused for every
specialization."""

import json
from fractions import Fraction

import pytest

from cyclohecke import center, rings
from cyclohecke.center import center_and_jm_span, commutator_coordinates
from cyclohecke.cli import main
from cyclohecke.hecke import AlgebraContext
from cyclohecke.rings import PrimeFieldDomain


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

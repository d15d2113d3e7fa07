"""The center claim of `hilb` and `center`: dim Z = rank JM = the number of
r-multipartitions of n at every q != 1, on parameters where the algebra is
not semisimple, and its negative controls."""

import json

import pytest

from cyclohecke import center, suites
from cyclohecke.cli import main
from test_center import _GRID, _case_id, _root_of_unity_ctx
from test_prime_field import GRID as PRIME_FIELD_GRID, forced_exact, run
from test_reference import BENCH, workloads

# the number of r-multipartitions of n, the coefficient of x^n in P(x)^r
MULTIPARTITIONS = {(2, 4): 14, (3, 2): 10, (3, 3): 22, (4, 2): 20,
                   (4, 3): 51, (5, 2): 36, (6, 1): 11}

Z3 = "zeta_3,zeta_3^2"
GRID = [
    (3, 2, "-1", "1,-1"), (3, 2, "-1", "1,1"), (3, 2, "-1", "1,2"),
    (4, 2, "-1", "1,-1"), (4, 2, "zeta_3", "1,zeta_3"),
    (4, 2, "zeta_4", "1,-1"), (4, 2, "zeta_4", "1,zeta_4"),
    (4, 2, "2", "1,2"), (4, 2, "2", "1,1"),
    (3, 3, "zeta_3", f"1,{Z3}"), (3, 3, "-1", "1,1,1"),
    (4, 3, "zeta_3", f"1,{Z3}"), (4, 3, "zeta_3", "1,1,1"),
    (4, 3, "-1", "1,-1,1"),
    (5, 2, "-1", "1,1"), (5, 2, "zeta_3", "1,1"), (5, 2, "-1", "1,-1"),
    (2, 4, "-1", "1,-1,1,-1"),
]


def center_argv(n, r, q, Qs):
    return f"center --n {n} --r {r} --q {q} --Q {Qs}"


def results(out):
    (line,) = out.splitlines()
    report = json.loads(line)
    return report, report["params"]["results"]


CLAIMS = ([(center_argv(*case), *case[:2]) for case in GRID]
          + [(f"hilb --n 6 --q-values={q}", 6, 1) for q in ("-1", "zeta_3")])


@pytest.mark.parametrize("argv, n, r", CLAIMS, ids=[c[0] for c in CLAIMS])
def test_claim_at_non_semisimple_points(capsys, argv, n, r):
    code, out = run(argv, capsys)
    assert code == 0
    report, (res,) = results(out)
    assert report["status"] == "pass"
    assert res["dim_center"] == res["dim_jm_center"] == MULTIPARTITIONS[n, r]


@pytest.mark.parametrize("argv", [
    center_argv(3, 2, "-1", "1,1"),
    center_argv(4, 2, "zeta_3", "1,zeta_3"),
    center_argv(3, 3, "zeta_3", f"1,{Z3}"),
    "hilb --n 5 --q-values=-1,zeta_3,zeta_4",
])
def test_claim_prime_field_equals_exact(monkeypatch, capsys, argv):
    got = run(argv, capsys)
    assert got[0] == 0
    assert got == forced_exact(argv, capsys, monkeypatch)


@pytest.fixture
def without_ad_T1(monkeypatch):
    """Fault: the center loses the constraint rows of ad T_1, so dim Z
    grows. Dropping ad L_1 instead would change nothing at r = 1."""
    operators = center.commutator_operators
    monkeypatch.setattr(center, "commutator_operators",
                        lambda ctx: operators(ctx)[1:])


class TestNegativeControls:
    def test_explicit_center_fails_on_the_count(self, capsys, without_ad_T1):
        code, out = run(center_argv(3, 2, "-1", "1,1"), capsys)
        assert code == 1
        report, _ = results(out)
        (witness,) = report["witnesses"]
        assert witness == {
            "reason": "dimensions differ from the number of multipartitions",
            "q": "-1", "expected": 10, "dim_center": 20, "dim_jm_center": 10}

    def test_hilb_fails_on_the_count_at_every_point(self, capsys,
                                                    without_ad_T1):
        code, out = run("hilb --n 4 --q-values=-1,zeta_3", capsys)
        assert code == 1
        report, res = results(out)
        assert [(x["q"], x["dim_center"], x["dim_jm_center"]) for x in res] \
            == [("-1", 7, 5), ("zeta_3^1", 7, 5)]
        assert [w["reason"] for w in report["witnesses"]] == [
            "dimensions differ from the number of multipartitions"] * 2

    def test_nothing_is_claimed_at_q_one(self, capsys, without_ad_T1):
        code, out = run(center_argv(3, 2, "1", "2,3"), capsys)
        assert code == 0
        _, (res,) = results(out)
        assert (res["dim_center"], res["dim_jm_center"]) == (20, 4)


def test_q_one_passes_below_the_count(capsys):
    # at q = 1 the JM center is too small; q1-gap checks that gap
    code, out = run(center_argv(3, 2, "1", "2,3"), capsys)
    assert code == 0
    _, (res,) = results(out)
    assert (res["dim_center"], res["dim_jm_center"]) == (10, 4)


# ---------------------------------------------------------------------------
# rank JM from the distinct character rows
# ---------------------------------------------------------------------------

@pytest.fixture
def spans(monkeypatch):
    """The domain class names of the contexts jm_center_span runs on."""
    names = []
    span = center.jm_center_span

    def recording(ctx, *args):
        names.append(type(ctx.domain).__name__)
        return span(ctx, *args)

    monkeypatch.setattr(center, "jm_center_span", recording)
    return names


@pytest.mark.parametrize("case", _GRID, ids=_case_id)
def test_bound_agrees_with_the_span_at_roots_of_unity(case):
    ctx = _root_of_unity_ctx(*case)
    space, jm_rank, in_center = center.center_and_jm_rank(ctx)
    zspace, span = center.center_and_jm_span(ctx)
    assert (space.rank, jm_rank, in_center) == \
        (zspace.rank, span.rank, span.in_center)


@pytest.mark.parametrize("argv", PRIME_FIELD_GRID + [
    center_argv(3, 2, "1", "2,3"), center_argv(2, 2, "1", "2,5"),
    center_argv(3, 2, "-1", "1,1")])
def test_bound_agrees_with_the_span_on_every_context(monkeypatch, capsys,
                                                      argv):
    """Every context the claim builds, over F_p and over Q."""
    bound = center.center_and_jm_rank
    seen = []

    def compared(ctx):
        space, jm_rank, in_center = found = bound(ctx)
        zspace, span = center.center_and_jm_span(ctx)
        assert (space.rank, jm_rank, in_center) == \
            (zspace.rank, span.rank, span.in_center)
        seen.append(type(ctx.domain).__name__)
        return found

    monkeypatch.setattr(suites, "center_and_jm_rank", compared)
    assert run(argv, capsys)[0] == 0
    assert forced_exact(argv, capsys, monkeypatch)[0] == 0
    assert "PrimeFieldDomain" in seen and "RationalDomain" in seen


@pytest.mark.parametrize("name", ["center-r4", "hilb-n4"])
def test_semisimple_references_build_no_span(monkeypatch, capsys, name):
    def refuse(*args):
        raise AssertionError("jm_center_span")

    monkeypatch.setattr(center, "jm_center_span", refuse)
    stdout = ""
    for argv in workloads.WORKLOADS[name].invocations(workloads.DEFAULT_SEED):
        assert main(argv) == 0, argv
        stdout += capsys.readouterr().out
    assert stdout.encode() == (BENCH / "reference" / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv", [
    center_argv(3, 2, "-1", "1,1"), center_argv(4, 2, "zeta_3", "1,zeta_3"),
    "hilb --n 4 --q-values=zeta_3", center_argv(3, 2, "1", "2,3")])
def test_colliding_rows_run_the_span(capsys, spans, argv):
    assert run(argv, capsys)[0] == 0
    assert spans


def test_merged_rows_run_the_span_and_change_nothing(monkeypatch, capsys,
                                                     spans):
    # generic: the rows are distinct and no span runs; with the first two
    # rows merged the count falls below dim Z, and the span decides
    argv = center_argv(2, 2, "3", "2,5")
    expected = run(argv, capsys)
    assert expected[0] == 0 and spans == []
    characters = center.specialized_elementary_characters

    def merged(ctx):
        mps, rows = characters(ctx)
        rows[1] = rows[0]
        return mps, rows

    monkeypatch.setattr(center, "specialized_elementary_characters", merged)
    assert run(argv, capsys) == expected
    assert spans == ["PrimeFieldDomain"]

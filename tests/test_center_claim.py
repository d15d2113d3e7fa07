"""The center claim of `hilb` and `center`: dim Z = rank JM = the number of
r-multipartitions of n at every q != 1, on parameters where the algebra is
not semisimple, and its negative controls."""

import json

import pytest

from cyclohecke import center
from test_prime_field import forced_exact, run

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

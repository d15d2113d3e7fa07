"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every numeric assertion here is an exact equality of big-rational,
cyclotomic or Laurent-polynomial data; there are no floating-point
tolerances anywhere. Each test prints a single pass line on success (pytest
shows them with -s or on failure).
"""

import math
import random
import time
from fractions import Fraction

from cyclohecke.center import (
    center_basis,
    descriptor_characters,
    jm_center_span,
    specialized_elementary_characters,
)
from cyclohecke.combinatorics import (
    count_standard_tableaux,
    enumerate_multipartitions,
)
from cyclohecke.hecke import (
    check_relations,
    one_step_T_push,
    straightening_closed_form,
)
from cyclohecke.ktheory import verify_blocks, verify_main_theorem
from cyclohecke.linalg import rank
from cyclohecke.reports import summarize
from cyclohecke.rings import CyclotomicDomain, RationalDomain
from cyclohecke.suites import (
    main_theorem_coverage,
    suite_hilb_fg06,
    suite_pairing,
    suite_q1_gap,
)
from cyclohecke.hecke import AlgebraContext
from conftest import _random_element, literal_L


def _announce(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_01_main_theorem_identity():
    start = time.time()
    pairs = main_theorem_coverage(budget=400)
    reports = [verify_main_theorem(n, r) for n, r in pairs]
    elapsed = time.time() - start
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:1]
    assert elapsed < 60.0, f"main-theorem suite took {elapsed:.1f}s"
    for must in [(4, 1), (3, 2), (2, 3)]:
        assert must in pairs
    _announce("C1 main-theorem identity",
              f"({len(pairs)} parameter pairs, {elapsed:.1f}s)")


def test_criterion_02_pbw_dimension(rational_ctx):
    # square-sum of standard tableau counts over the same coverage range
    for n, r in main_theorem_coverage(budget=400):
        expected = r ** n * math.factorial(n)
        total = sum(count_standard_tableaux(mp) ** 2
                    for mp in enumerate_multipartitions(n, r))
        assert total == expected, (n, r)
    # basis size for built contexts
    built = [
        rational_ctx(2, 1, Fraction(3), [1]),
        rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)]),
        rational_ctx(3, 1, Fraction(2), [1]),
    ]
    for ctx in built:
        assert ctx.dim == ctx.r ** ctx.n * math.factorial(ctx.n)
    _announce("C2 PBW dimension")


def test_criterion_03_centrality(symbolic_ctx, sampled_ctxs):
    def check(ctx):
        gens = ctx.generators()
        for k in range(1, ctx.n + 1):
            ek = ctx.symmetric_jm(k)
            for g in gens:
                assert (ek * g - g * ek).is_zero(), (ctx.n, ctx.r, k)
        en = ctx.symmetric_jm(ctx.n)
        inv = ctx.symmetric_jm_inverse()
        assert inv * en == ctx.one(), (ctx.n, ctx.r, "inv")
        assert en * inv == ctx.one(), (ctx.n, ctx.r, "inv")
        for g in gens:
            assert (inv * g - g * inv).is_zero(), (ctx.n, ctx.r, "inv")

    for n, r in [(2, 1), (2, 2), (3, 1)]:
        check(symbolic_ctx(n, r))
    for n, r in [(3, 2), (4, 1)]:
        for ctx in sampled_ctxs(n, r):
            check(ctx)
    _announce("C3 centrality",
              "(symbolic (2,1),(2,2),(3,1); sampled (3,2),(4,1))")


def test_criterion_04_sigma_injectivity_shadow(sampled_ctxs):
    assert len(enumerate_multipartitions(3, 2)) == 10
    for n, r in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]:
        expected = len(enumerate_multipartitions(n, r))
        for ctx in sampled_ctxs(n, r):
            span = jm_center_span(ctx)
            assert span.rank == expected, (n, r)
            _, values = specialized_elementary_characters(ctx)
            matrix = descriptor_characters(ctx, values, span.descriptors)
            rows = [dict(enumerate(row)) for row in matrix]
            assert rank(rows, ctx.domain) == expected, (n, r)
    _announce("C4 sigma injectivity shadow", "(|P^2_3| = 10)")


def test_criterion_05_minimal_polynomial(sampled_ctxs):
    for n, r in [(3, 1), (2, 2)]:
        for ctx in sampled_ctxs(n, r):
            _, rows = specialized_elementary_characters(ctx)
            values = sorted({row[0] for row in rows})
            e1 = ctx.symmetric_jm(1)
            prod = ctx.one()
            for v in values:
                prod = prod * (e1 - v * ctx.one())
            assert prod.is_zero(), (n, r)
    _announce("C5 minimal-polynomial check")


def test_criterion_06_hilbert_scheme_corollary():
    QQ, Z3 = RationalDomain(), CyclotomicDomain(3)
    points = [(QQ, Fraction(2), "2"), (QQ, Fraction(-1), "-1"),
              (Z3, Z3.zeta(1), "zeta_3^1")]
    p_n = {2: 2, 3: 3, 4: 5}
    for n in (2, 3, 4):
        report = suite_hilb_fg06(n, points)
        assert report.passed, report.witnesses[:1]
        assert [r["q"] for r in report.params["results"]] == \
            ["2", "-1", "zeta_3^1"]
        for entry in report.params["results"]:
            assert entry["dim_center"] == entry["dim_jm_center"] == p_n[n]
    _announce("C6 Hilbert-scheme corollary", "(p(n) = 2, 3, 5)")


def test_criterion_07_blocks_at_roots_of_unity():
    expected = {
        (2, 1, 2, (0,)): 1,
        (3, 1, 2, (0,)): 2,
        (2, 2, 2, (0, 0)): 2,
    }
    for (n, r, ell, charge), count in expected.items():
        report = verify_blocks(n, r, ell, charge)
        assert report.passed, report.witnesses[:1]
        assert report.params["blocks"] == count, (n, r)
        assert report.params["classes"] == count
        for block in report.params["per_block"]:
            assert block["jm_image_dim"] == block["class_size"]
    _announce("C7 blocks at roots of unity", "(counts 1, 2, 2)")


def test_criterion_08_cocenter_and_pairing():
    for n, r in [(2, 1), (3, 1), (2, 2)]:
        expected = len(enumerate_multipartitions(n, r))
        report = suite_pairing(n, r, seed=0, samples=1)
        assert report.passed, report.witnesses[:1]
        assert report.params["cocenter_dim_expected"] == expected
    _announce("C8 cocenter dimension and pairing",
              "(exact certificates: trace symmetry, centrality, module "
              "property on bases)")


def test_criterion_09_q1_gap():
    report = suite_q1_gap(2, 2, [Fraction(2), Fraction(5)])
    assert report.passed, report.witnesses[:1]
    assert report.params["invariant_dim"] == 3
    assert report.params["multipartitions"] == 5
    report = suite_q1_gap(2, 3, [Fraction(2), Fraction(5), Fraction(11)])
    assert report.passed, report.witnesses[:1]
    assert report.params["invariant_dim"] == 6
    assert report.params["multipartitions"] == 9
    _announce("C9 q=1 gap", "(3 < 5 and 6 < 9)")


def _dropped_commutations_hold(ctx):
    """The commutations the certificate derives from the presentation
    instead of checking: L_i L_j = L_j L_i for every pair and
    T_i L_j = L_j T_i for j not in {i, i+1}, on every basis word."""
    n, d = ctx.n, ctx.domain

    def T(i):
        return lambda v: ctx.domain.apply_cols(ctx._matrices[("T", i - 1)], v)

    def L(j):
        return lambda v: literal_L(ctx, j, v)

    pairs = [((f"L{i}", L(i)), (f"L{j}", L(j)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs += [((f"T{i}", T(i)), (f"L{j}", L(j)))
              for i in range(1, n) for j in range(1, n + 1)
              if j not in (i, i + 1)]
    for (a, f), (b, g) in pairs:
        for k in range(ctx.dim):
            ab = f(g({k: d.one}))
            ctx.domain.add_scaled(ab, g(f({k: d.one})), -d.one)
            assert not ab, (ctx.domain.name, a, b, ctx.basis[k])


def test_criterion_10_engine_self_test(symbolic_ctx, sampled_ctxs):
    # straightening oracle first, for all exponents up to 4
    for a in range(5):
        for b in range(5):
            assert straightening_closed_form(a, b) == one_step_T_push(a, b)
    # every specialization family used by the criteria above
    contexts = []
    for n, r in [(2, 1), (2, 2), (3, 1)]:
        contexts.append(symbolic_ctx(n, r))
    for n, r in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]:
        contexts.extend(sampled_ctxs(n, r))
    dom2 = CyclotomicDomain(2)
    dom3 = CyclotomicDomain(3)
    for n in (2, 3, 4):
        contexts.append(AlgebraContext(
            n, 1, RationalDomain(), Fraction(2), [Fraction(1)]))
        contexts.append(AlgebraContext(
            n, 1, RationalDomain(), Fraction(-1), [Fraction(1)]))
        contexts.append(AlgebraContext(
            n, 1, dom3, dom3.zeta(1), [dom3.one]))
    contexts.append(AlgebraContext(2, 2, dom2, dom2.zeta(1),
                                   [dom2.one, dom2.one]))
    contexts.append(AlgebraContext(2, 2, RationalDomain(), Fraction(1),
                                   [Fraction(2), Fraction(5)]))
    reports = [check_relations(ctx) for ctx in contexts]
    passed, failed, skipped = summarize(reports)
    assert failed == 0, [r.witnesses[:1] for r in reports if not r.passed]
    for ctx, report in zip(contexts, reports):
        assert report.params["reconstructed"] == ctx.dim
        assert "assoc_trials" not in report.params
    # test-side cross-checks of the certificate: the commutations it derives,
    # and 200 random triples each
    for ctx in contexts:
        _dropped_commutations_hold(ctx)
        rng = random.Random(0)
        for _ in range(200):
            x, y, z = (_random_element(ctx, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z), ctx.domain.name
    _announce("C10 engine certificate",
              f"({len(contexts)} specializations: relations and PBW "
              f"reconstruction on every basis word; every L_i L_j and "
              f"T_i L_j commutation on every basis word and associativity "
              f"x200 each as cross-checks)")

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import add_T1_to_e1
from cyclohecke import center, suites
from cyclohecke.cli import main
from cyclohecke.hecke import AlgebraContext
from cyclohecke.reports import VerificationReport, summarize
from cyclohecke.rings import CyclotomicDomain, RationalDomain
from cyclohecke.suites import (
    SmashProduct,
    generic_contexts,
    generic_specializations,
    main_theorem_coverage,
    pbw_dimension_report,
    sample_specialization,
    suite_hilb_fg06,
    suite_main_theorem,
    suite_pairing,
    suite_q1_gap,
)


class TestReports:
    def test_any_witness_fails_even_when_skipped(self):
        rep = VerificationReport("x", {}, [{"reason": "r"}], skipped=True)
        assert rep.status == "fail" and not rep.passed

    def test_empty_report_is_skipped_only_with_the_flag(self):
        assert VerificationReport("x", {}).status == "pass"
        assert VerificationReport("x", {}, []).passed
        assert VerificationReport("x", {}, skipped=True).status == "skipped"

    def test_canonical_json_has_status_and_excludes_duration(self):
        rep = VerificationReport("x", {"n": 1}, duration=1.23)
        record = json.loads(rep.to_json())
        assert record["status"] == "pass"
        assert "duration" not in record

    def test_summarize(self):
        reports = [
            VerificationReport("a", {}),
            VerificationReport("b", {}, skipped=True),
            VerificationReport("c", {}, [{"reason": "r"}]),
        ]
        assert summarize(reports) == (1, 1, 1)


class TestSampler:
    def test_rejects_coincidences(self):
        rng = random.Random(0)
        for _ in range(50):
            q, Qs = sample_specialization(3, rng, 2)
            assert q != 1
            for i in range(2):
                for j in range(2):
                    if i != j:
                        for m in range(-6, 7):
                            assert Qs[i] != q ** m * Qs[j]

    def test_matches_the_literal_criterion(self):
        """Seed for seed, the same samples as rejecting Q_i = q^m Q_j
        literally, for every ordered pair i != j and every |m| <= 2n. At
        n = 1, r = 4 the last three seeds draw a coincidence at |m| = 2n
        first, so a bound one short would keep a different sample."""
        rejected = 0

        def literal(n, r, rng, bound):
            nonlocal rejected
            while True:
                q = Fraction(rng.randint(2, 97))
                Qs = [Fraction(rng.randint(2, 97)) for _ in range(r)]
                if not any(Qs[i] == q ** m * Qs[j]
                           for i in range(r) for j in range(r) if i != j
                           for m in range(-bound, bound + 1)):
                    return q, Qs
                rejected += 1

        cases = [(2, 4, 1, range(50)), (4, 3, 3, range(50)),
                 (5, 2, 3, range(50)), (1, 4, 1, (1434, 2872, 2922))]
        for n, r, samples, seeds in cases:
            for seed in seeds:
                rng = random.Random(seed)
                expected = [literal(n, r, rng, 2 * n) for _ in range(samples)]
                assert generic_specializations(
                    n, r, seed, samples) == expected, (n, r, seed)
        assert rejected  # the seeds reach the rejection
        for seed in cases[-1][3]:
            assert (literal(1, 4, random.Random(seed), 1)
                    != literal(1, 4, random.Random(seed), 2))

    def test_deterministic_given_seed(self):
        a = sample_specialization(2, random.Random(9), 2)
        b = sample_specialization(2, random.Random(9), 2)
        assert a == b


class TestMainTheoremSuite:
    def test_coverage_respects_budget(self):
        pairs = main_theorem_coverage(budget=400)
        for n, r in pairs:
            assert r ** n * math.factorial(n) <= 400
        for expected in [(4, 1), (3, 2), (2, 3), (0, 1)]:
            assert expected in pairs

    def test_default_suite_passes(self):
        reports = suite_main_theorem()
        assert reports and all(r.passed for r in reports)


QQ = RationalDomain()


class TestHilbSuite:
    def test_dimensions_at_listed_values(self):
        rep = suite_hilb_fg06(
            2, [(QQ, Fraction(2), "2"), (QQ, Fraction(-1), "-1")])
        assert rep.passed
        by_q = {r["q"]: r for r in rep.params["results"]}
        assert by_q["-1"]["dim_center"] == 2
        assert by_q["-1"]["dim_jm_center"] == 2

    def test_generic_equals_partition_count(self):
        rep = suite_hilb_fg06(3, [(QQ, Fraction(5), "5")])
        assert rep.passed
        assert rep.params["results"][0]["dim_center"] == 3

    def test_root_of_unity(self):
        domain = CyclotomicDomain(3)
        rep = suite_hilb_fg06(3, [(domain, domain.zeta(1), "zeta_3^1")])
        assert rep.passed
        assert rep.params["results"][0]["dim_jm_center"] == 3

    def test_q_equal_one_rejected(self):
        z3 = CyclotomicDomain(3)
        for domain, q in [(QQ, Fraction(1)), (z3, z3.zeta(3))]:
            with pytest.raises(ValueError, match="q != 1"):
                suite_hilb_fg06(2, [(QQ, Fraction(2), "2"), (domain, q, "1")])


class TestSmashProduct:
    def test_invariant_dims(self):
        assert SmashProduct(2, 2, [2, 5]).invariant_polynomial_dim() == 3
        assert SmashProduct(2, 3, [2, 5, 11]).invariant_polynomial_dim() == 6
        assert SmashProduct(1, 3, [2, 5, 11]).invariant_polynomial_dim() == 3

    def test_multiplication_is_associative(self):
        # on every triple of basis words at (2, 2): q1-gap compares only
        # generator x word products and relies on this associativity
        smash = SmashProduct(2, 2, [2, 5])

        def mult_terms(terms, word, left):
            out = {}
            for w, c in terms.items():
                prod = (smash.multiply_words(word, w) if left
                        else smash.multiply_words(w, word))
                for w2, c2 in prod.items():
                    out[w2] = out.get(w2, Fraction(0)) + c * c2
            return {k: v for k, v in out.items() if v}

        words = smash.basis
        assert len(words) == 8
        for x, y, z in itertools.product(words, repeat=3):
            left = mult_terms(smash.multiply_words(x, y), z, left=False)
            right = mult_terms(smash.multiply_words(y, z), x, left=True)
            assert left == right

    def test_gap_2_2(self):
        rep = suite_q1_gap(2, 2, [Fraction(2), Fraction(5)])
        assert rep.passed
        assert rep.params["invariant_dim"] == 3
        assert rep.params["multipartitions"] == 5
        assert rep.params["gap"] is True
        assert rep.params["structure_compared"] is True

    @pytest.mark.parametrize("n, r", [(1, 3), (3, 1), (3, 2), (4, 2)])
    def test_structure_compared_at_every_n(self, n, r):
        rep = suite_q1_gap(n, r)
        assert rep.passed
        assert rep.params["structure_compared"] is True

    def test_one_entry_smash_fault_fails(self, monkeypatch):
        # one coefficient of one product of a generator with a basis word:
        # the invariant dimension and the JM rank do not see it
        multiply_words = SmashProduct.multiply_words

        def faulty(self, x, y):
            out = multiply_words(self, x, y)
            if y == self.basis[-1] and x == self.generator_words()[1]:
                key = min(out)
                out[key] += 1
            return out

        monkeypatch.setattr(SmashProduct, "multiply_words", faulty)
        rep = suite_q1_gap(3, 2, [Fraction(2), Fraction(5)])
        assert rep.status == "fail"
        assert rep.witnesses == [{
            "reason": "engine at q = 1 differs from the smash product",
            "left": str(((0, 0, 0), (0, 2, 1))),
            "right": str(((1, 1, 1), (2, 1, 0)))}]

    def test_gap_2_3(self):
        rep = suite_q1_gap(2, 3, [Fraction(2), Fraction(5), Fraction(11)])
        assert rep.passed
        assert rep.params["invariant_dim"] == 6
        assert rep.params["multipartitions"] == 9

    def test_boundary_n1_reports_equality(self):
        rep = suite_q1_gap(1, 3, [Fraction(2), Fraction(5), Fraction(11)])
        assert rep.passed
        assert rep.params["invariant_dim"] == rep.params["multipartitions"]
        assert rep.params["gap"] is False

    def test_distinct_parameters_required(self):
        with pytest.raises(ValueError):
            suite_q1_gap(2, 2, [Fraction(2), Fraction(2)])


class TestPairingSuite:
    def test_small_run_passes(self):
        rep = suite_pairing(2, 1, seed=0, samples=1)
        assert rep.passed
        assert rep.params["specialization"] == "generic (sampled)"
        assert "trials" not in rep.params

    def test_matches_the_literal_criterion(self):
        """Seed for seed, the same samples as rejecting Q_i = q^m Q_j
        literally, for every ordered pair i != j and every |m| <= 2n. At
        n = 1, r = 4 the last three seeds draw a coincidence at |m| = 2n
        first, so a bound one short would keep a different sample."""
        rejected = 0

        def literal(n, r, rng, bound):
            nonlocal rejected
            while True:
                q = Fraction(rng.randint(2, 97))
                Qs = [Fraction(rng.randint(2, 97)) for _ in range(r)]
                if not any(Qs[i] == q ** m * Qs[j]
                           for i in range(r) for j in range(r) if i != j
                           for m in range(-bound, bound + 1)):
                    return q, Qs
                rejected += 1

        cases = [(2, 4, 1, range(50)), (4, 3, 3, range(50)),
                 (5, 2, 3, range(50)), (1, 4, 1, (1434, 2872, 2922))]
        for n, r, samples, seeds in cases:
            for seed in seeds:
                rng = random.Random(seed)
                expected = [literal(n, r, rng, 2 * n) for _ in range(samples)]
                assert generic_specializations(
                    n, r, seed, samples) == expected, (n, r, seed)
        assert rejected  # the seeds reach the rejection
        for seed in cases[-1][3]:
            assert (literal(1, 4, random.Random(seed), 1)
                    != literal(1, 4, random.Random(seed), 2))

    def test_one_spectrum_table_per_sample(self, monkeypatch, capsys):
        # the module-map check and the character duals read the same rows
        characters = suites.specialized_elementary_characters
        calls = []

        def counted(ctx):
            calls.append(ctx.q_val)
            return characters(ctx)

        for module in (center, suites):
            monkeypatch.setattr(module, "specialized_elementary_characters",
                                counted)
        assert main("--samples 2 pairing --n 2 --r 2".split()) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert len(calls) == len(set(calls)) == 2

    def test_deterministic_given_seed(self):
        a = suite_pairing(2, 1, seed=3, samples=1).to_json()
        b = suite_pairing(2, 1, seed=3, samples=1).to_json()
        assert a == b


class TestPairingCertificateFaults:
    """Each pairing certificate fails on its own fault, with its own
    witness reason."""

    def test_commutator_with_trace_fails_trace_symmetry(self, monkeypatch):
        # a commutator column with a nonzero identity-word entry puts a
        # pivot at word 0: tau no longer vanishes on the span
        operators = center.commutator_operators

        def with_trace(ctx):
            ops = operators(ctx)
            ops[0][-1][0] = ctx.domain.one
            return ops

        monkeypatch.setattr(center, "commutator_operators", with_trace)
        rep = suite_pairing(2, 2, samples=1)
        assert rep.status == "fail"
        assert rep.witnesses[0]["reason"] == "trace symmetry failed"

    def test_non_central_span_element_fails_adjointness(self, monkeypatch):
        # the generator e_1 becomes e_1 + T_1, which is not central
        add_T1_to_e1(monkeypatch)
        rep = suite_pairing(2, 2, samples=1)
        assert rep.status == "fail"
        assert rep.witnesses[0] == {
            "reason": "JM-center element is not central",
            "a": "(1) * T[2,1] + (1) * L2 + (1) * L1"}

    @pytest.mark.parametrize("module, table", [
        (center, "descriptor_characters"),
        (suites, "specialized_elementary_characters"),
    ], ids=["center", "suites"])
    def test_corrupted_character_rows_fail_module_property(self, monkeypatch,
                                                           module, table):
        # the suite's table of the generators feeds both the dual, through
        # center's character matrix of the span, and the check: rows
        # relabelled in the matrix alone, or a table row that is no
        # character of the JM center (e_1 bumped), are caught
        characters = getattr(module, table)

        if table == "descriptor_characters":
            def corrupted(ctx, rows, descriptors):
                matrix = characters(ctx, rows, descriptors)
                matrix[0], matrix[1] = matrix[1], matrix[0]
                return matrix
        else:
            def corrupted(ctx):
                mps, rows = characters(ctx)
                rows[0] = [rows[0][0] + 1] + rows[0][1:]
                return mps, rows

        monkeypatch.setattr(module, table, corrupted)
        rep = suite_pairing(2, 2, samples=1)
        assert rep.status == "fail"
        assert [w["reason"] for w in rep.witnesses] == [
            "character dual is not a module map"]

    @pytest.mark.parametrize("slot, entry", [(0, (1, 0)), (-1, (2, 3))],
                             ids=["C_1", "C_inv"])
    def test_bumped_cocenter_matrix_fails_module_property(self, monkeypatch,
                                                          slot, entry):
        # +1 in one entry of C_1 or of C_inv; the C_inv entry meets no row
        # of the replayed Gram matrix, so only the check on e_n^-1 sees it
        true_matrices = center.cocenter_matrices
        contexts = []

        def bumped(ctx, coords):
            contexts.append(ctx)
            mats = true_matrices(ctx, coords)
            j, l = entry
            mats[slot][j][l] = mats[slot][j].get(l, 0) + 1
            return mats

        monkeypatch.setattr(suites, "cocenter_matrices", bumped)
        rep = suite_pairing(3, 2, samples=1)
        ctx, = contexts
        generators = (ctx.symmetric_jm(1), ctx.symmetric_jm_inverse())
        assert rep.witnesses == [{
            "reason": "character dual is not a module map",
            "multipartition": "[[3],[]]",
            "a": generators[slot].render()}]


class TestCommutatorOperatorFault:
    def test_center_and_cocenter_fail_on_a_corrupted_right_T(self,
                                                              monkeypatch):
        # the center and the cocenter both read the commutator operators;
        # dropping the diagonal (q-1) entries of right multiplication by
        # T_i must make both suites fail. Right multiplication by 1, which
        # the build gate reads, is left alone, so the contexts still build
        right = AlgebraContext.right_multiplication_matrix

        def without_diagonal(ctx, x):
            cols = right(ctx, x)
            if all(x != ctx.T(i) for i in range(1, ctx.n)):
                return cols
            return [{k: c for k, c in col.items() if k != j}
                    for j, col in enumerate(cols)]

        monkeypatch.setattr(AlgebraContext, "right_multiplication_matrix",
                            without_diagonal)
        hilb = suite_hilb_fg06(3, [(QQ, Fraction(2), "2")])
        assert hilb.status == "fail"
        assert hilb.params["results"][0]["dim_center"] == 1
        pairing = suite_pairing(2, 2, samples=1)
        assert pairing.status == "fail"
        assert pairing.witnesses[0]["cocenter_dim"] == 2


class TestDimensionReport:
    def test_matches_context(self, rational_ctx):
        ctx = rational_ctx(2, 2, Fraction(3), [Fraction(2), Fraction(5)])
        rep = pbw_dimension_report(2, 2)
        assert rep.passed
        assert rep.params["expected"] == ctx.dim == 8
        assert rep.params["basis_size"] is None
        assert rep.params["syt_square_sum"] == 8

    def test_generic_contexts_are_seeded(self):
        a = generic_contexts(2, 1, seed=4, samples=2)
        b = generic_contexts(2, 1, seed=4, samples=2)
        assert [(c.q_val, tuple(c.Q_vals)) for c in a] == \
            [(c.q_val, tuple(c.Q_vals)) for c in b]

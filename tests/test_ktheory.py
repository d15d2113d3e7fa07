import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclohecke import ktheory
from cyclohecke.combinatorics import (
    enumerate_multipartitions,
    jm_eigenvalues,
    render_multipartition,
)
from cyclohecke.ktheory import (
    fixed_point_character,
    restriction_table,
    verify_blocks,
    verify_main_theorem,
)
from cyclohecke.linalg import RowSpace
from cyclohecke.rings import LaurentPoly, RationalDomain

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "testdata" / "tables"


class TestFixedPointCharacter:
    # weights q^a Q_k are pairs (a, k)
    def test_single_box(self):
        assert fixed_point_character(((1,),)) == [(0, 1)]

    def test_row_of_two(self):
        # boxes (1,1), (1,2): weights Q_1 and q Q_1
        assert Counter(fixed_point_character(((2,),))) == \
            Counter([(0, 1), (1, 1)])

    def test_column_plus_box(self):
        # Q_1, q^-1 Q_1 and Q_2
        assert Counter(fixed_point_character(((1, 1), (1,)))) == \
            Counter([(0, 1), (-1, 1), (0, 2)])

    @pytest.mark.parametrize("weights", [
        [(0, 0)],
        [(0, 3)],
        [(0, -1)],
        [(0,)],
        [(0, 1, 0)],
    ], ids=["colour-0", "colour-above-r", "negative-colour", "too-short",
            "too-long"])
    def test_main_identity_refuses_a_bad_geometric_weight(self, monkeypatch,
                                                          weights):
        # the fixed point [[1],[]] of (1,2) has the one weight (0, 1); a
        # malformed geometric list there raises on the witness path
        monkeypatch.setattr(ktheory, "fixed_point_character", lambda mp, r:
                            weights if mp == ((1,), ()) else
                            fixed_point_character(mp, r))
        with pytest.raises(ValueError):
            verify_main_theorem(1, 2)

    def test_missing_geometric_weight_witnesses_name_their_columns(
            self, monkeypatch):
        # one weight against two eigenvalues: e2 of the short side is 0
        monkeypatch.setattr(ktheory, "fixed_point_character", lambda mp, r:
                            fixed_point_character(mp, r)[:-1])
        rep = verify_main_theorem(2, 1)
        assert rep.status == "fail"
        assert rep.witnesses == [
            {"multipartition": "[[2]]", "column": "e1",
             "geometric": "Q1", "algebraic": "Q1 + q*Q1"},
            {"multipartition": "[[2]]", "column": "e2",
             "geometric": "0", "algebraic": "q*Q1^2"},
            {"multipartition": "[[2]]", "column": "det_inv",
             "geometric": "Q1^-1", "algebraic": "q^-1*Q1^-2"},
            {"multipartition": "[[1,1]]", "column": "e1",
             "geometric": "Q1", "algebraic": "q^-1*Q1 + Q1"},
            {"multipartition": "[[1,1]]", "column": "e2",
             "geometric": "0", "algebraic": "q^-1*Q1^2"},
            {"multipartition": "[[1,1]]", "column": "det_inv",
             "geometric": "Q1^-1", "algebraic": "q*Q1^-2"}]

    @pytest.mark.parametrize("weights_of", [
        fixed_point_character, jm_eigenvalues,
    ], ids=["geometric", "algebraic"])
    def test_both_sides_refuse_a_wrong_level(self, weights_of):
        assert weights_of(((1,), ()), 2) == [(0, 1)]
        with pytest.raises(ValueError):
            weights_of(((1,), ()), 3)

    def test_weights_match_jm_eigenvalues(self):
        # this equality is the engine of the main identity; the two sides
        # are produced by independent code paths
        for n in range(0, 6):
            for r in (1, 2, 3):
                for mp in enumerate_multipartitions(n, r):
                    assert Counter(fixed_point_character(mp, r)) == \
                        Counter(jm_eigenvalues(mp, r))


class TestRestrictionTable:
    def test_n1_r1(self):
        table = restriction_table(1, 1)
        Q1 = LaurentPoly.variable(1, 2)
        assert table.entries == [[Q1, Q1 ** -1]]

    def test_n2_r1_row_of_two(self):
        table = restriction_table(2, 1)
        q, Q1 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        row = table.entries[table.rows.index(((2,),))]
        assert row == [Q1 + q * Q1, q * Q1 ** 2, q ** -1 * Q1 ** -2]

    def test_n2_r2_two_single_boxes(self):
        table = restriction_table(2, 2)
        Q1, Q2 = LaurentPoly.variable(1, 3), LaurentPoly.variable(2, 3)
        row = table.entries[table.rows.index(((1,), (1,)))]
        assert row == [Q1 + Q2, Q1 * Q2, (Q1 * Q2) ** -1]

    def test_det_inv_column_inverts_top_column(self):
        for n, r in [(2, 1), (3, 1), (2, 2)]:
            table = restriction_table(n, r)
            one = LaurentPoly.const(1, 1 + r)
            for row in table.entries:
                assert row[n - 1] * row[n] == one

    def test_rows_distinct_at_random_specialization(self):
        rng = random.Random(0)
        dom = RationalDomain()
        for n, r in [(3, 1), (2, 2), (3, 2)]:
            table = restriction_table(n, r)
            q_val = Fraction(rng.randint(2, 97))
            Q_vals = [Fraction(rng.randint(2, 97)) for _ in range(r)]
            seen = set()
            for row in table.entries:
                key = tuple(p.evaluate([q_val, *Q_vals], dom) for p in row)
                assert key not in seen
                seen.add(key)

    def test_column_products_span_full_rank(self):
        # closure of the columns under pointwise product has rank equal to
        # the number of fixed points at a generic specialization
        dom = RationalDomain()
        for n, r in [(2, 1), (3, 1), (2, 2)]:
            table = restriction_table(n, r)
            q_val, Q_vals = Fraction(5), [Fraction(7 + 3 * k)
                                          for k in range(r)]
            count = len(table.rows)
            columns = [
                [table.entries[i][j].evaluate([q_val, *Q_vals], dom)
                 for i in range(count)]
                for j in range(len(table.column_labels))
            ]
            span = RowSpace(dom, count)
            span.add(dict(enumerate([dom.one] * count)))
            frontier = []
            for col in columns:
                if span.add(dict(enumerate(col))):
                    frontier.append(col)
            while frontier:
                new_frontier = []
                for vec in frontier:
                    for col in columns:
                        prod = [a * b for a, b in zip(vec, col)]
                        if span.add(dict(enumerate(prod))):
                            new_frontier.append(prod)
                frontier = new_frontier
            assert span.rank == count

    def test_golden_csv_files_are_stable(self):
        for n, r in [(2, 1), (2, 2), (4, 2), (3, 3)]:
            golden = (GOLDEN_DIR / f"restriction-n{n}-r{r}.csv").read_text()
            assert restriction_table(n, r).to_csv() == golden

    def test_json_round_trips_deterministically(self):
        assert restriction_table(2, 2).to_json() == \
            restriction_table(2, 2).to_json()


class TestMainTheorem:
    def test_trivial_case(self):
        rep = verify_main_theorem(1, 1)
        assert rep.passed
        assert rep.params["rows"] == 1

    def test_vacuous_n0(self):
        rep = verify_main_theorem(0, 2)
        assert rep.passed
        assert rep.params["rows"] == 1

    def test_n3_r1(self):
        rep = verify_main_theorem(3, 1)
        assert rep.passed
        assert rep.params["rows"] == 3

    def test_n3_r2_has_ten_rows(self):
        rep = verify_main_theorem(3, 2)
        assert rep.passed
        assert rep.params["rows"] == 10

    def test_shifted_box_fails_with_witness(self, monkeypatch):
        # the geometric side alone sees the fault: the last box of every
        # fixed point gets one more factor q
        _check_shifted_last_weight(monkeypatch, "geometric", 1)

    def test_shifted_content_fails_with_witness(self, monkeypatch):
        # the algebraic side alone sees the fault: the last node of every
        # fixed point gets content + 1, i.e. one more factor q
        _check_shifted_last_weight(monkeypatch, "algebraic", 1)

    def test_content_shifted_past_the_weight_range_fails(self, monkeypatch):
        # a shift of n + 1 leaves the range of the true weights
        _check_shifted_last_weight(monkeypatch, "algebraic", 4)

    def test_eigenvalue_off_the_weight_range_fails(self, monkeypatch):
        # at (1,2) every eigenvalue becomes q^-1 Q2 = (-1, 2): a weight of
        # the other colour at [[1],[]] and below the q range of both rows
        monkeypatch.setattr(ktheory, "jm_eigenvalues",
                            lambda mp, r=None: [(-1, 2)])
        rep = verify_main_theorem(1, 2)
        assert rep.status == "fail"
        assert rep.witnesses == [
            {"multipartition": "[[1],[]]", "column": "e1",
             "geometric": "Q1", "algebraic": "q^-1*Q2"},
            {"multipartition": "[[1],[]]", "column": "det_inv",
             "geometric": "Q1^-1", "algebraic": "q*Q2^-1"},
            {"multipartition": "[[],[1]]", "column": "e1",
             "geometric": "Q2", "algebraic": "q^-1*Q2"},
            {"multipartition": "[[],[1]]", "column": "det_inv",
             "geometric": "Q2^-1", "algebraic": "q*Q2^-1"}]

    def test_shuffled_eigenvalues_pass(self, monkeypatch):
        # the identity compares weight multisets, not lists
        rng = random.Random(11)

        def shuffled(mp, r=None):
            weights = jm_eigenvalues(mp, r)
            return rng.sample(weights, len(weights))

        monkeypatch.setattr(ktheory, "jm_eigenvalues", shuffled)
        assert verify_main_theorem(4, 2).passed

    @pytest.mark.parametrize("colour", [0, 3, -1],
                             ids=["zero", "above-r", "negative"])
    def test_refuses_an_eigenvalue_colour_outside_1_to_r(self, monkeypatch,
                                                          colour):
        monkeypatch.setattr(ktheory, "jm_eigenvalues", lambda mp, r=None:
                            jm_eigenvalues(mp, r)[:-1] + [(0, colour)])
        with pytest.raises(ValueError, match="colour"):
            verify_main_theorem(2, 2)

    def test_extra_eigenvalue_witnesses_name_their_columns(self,
                                                           monkeypatch):
        # three eigenvalues against two weights: each row is e1, e2 and
        # det_inv, so e3 of the long side shows in no column
        monkeypatch.setattr(ktheory, "jm_eigenvalues", lambda mp, r=None:
                            jm_eigenvalues(mp, r) + [(5, 1)])
        rep = verify_main_theorem(2, 1)
        assert rep.witnesses[:3] == [
            {"multipartition": "[[2]]", "column": "e1",
             "geometric": "Q1 + q*Q1", "algebraic": "Q1 + q*Q1 + q^5*Q1"},
            {"multipartition": "[[2]]", "column": "e2",
             "geometric": "q*Q1^2",
             "algebraic": "q*Q1^2 + q^5*Q1^2 + q^6*Q1^2"},
            {"multipartition": "[[2]]", "column": "det_inv",
             "geometric": "q^-1*Q1^-2", "algebraic": "q^-6*Q1^-3"}]
        assert [w["column"] for w in rep.witnesses[3:]] == [
            "e1", "e2", "det_inv"]

    def test_missing_eigenvalue_witnesses_name_their_columns(self,
                                                             monkeypatch):
        # one eigenvalue against two weights: e2 of the short side is 0
        monkeypatch.setattr(ktheory, "jm_eigenvalues", lambda mp, r=None:
                            jm_eigenvalues(mp, r)[:-1])
        rep = verify_main_theorem(2, 1)
        assert rep.witnesses == [
            {"multipartition": "[[2]]", "column": "e1",
             "geometric": "Q1 + q*Q1", "algebraic": "Q1"},
            {"multipartition": "[[2]]", "column": "e2",
             "geometric": "q*Q1^2", "algebraic": "0"},
            {"multipartition": "[[2]]", "column": "det_inv",
             "geometric": "q^-1*Q1^-2", "algebraic": "Q1^-1"},
            {"multipartition": "[[1,1]]", "column": "e1",
             "geometric": "q^-1*Q1 + Q1", "algebraic": "Q1"},
            {"multipartition": "[[1,1]]", "column": "e2",
             "geometric": "q^-1*Q1^2", "algebraic": "0"},
            {"multipartition": "[[1,1]]", "column": "det_inv",
             "geometric": "q*Q1^-2", "algebraic": "Q1^-1"}]


def _oracle_pairs():
    """(r, a, b): seeded weight lists a of 1..4 weights (a, k), a in -2..2
    and k in 1..r for r 1..3, each against a shuffled copy, the copy with
    one q-exponent moved by 1, with one colour changed (r > 1) and with
    one weight dropped; then a pair with equal sets but unequal multisets
    and a pair with equal det_inv but unequal e1."""
    rng = random.Random(31)
    for r in (1, 2, 3):
        for m in range(1, 5):
            a = [(rng.randint(-2, 2), rng.randint(1, r)) for _ in range(m)]
            i = rng.randrange(m)
            e, k = a[i]
            yield r, a, rng.sample(a, m)
            yield r, a, a[:i] + [(e + rng.choice((-1, 1)), k)] + a[i + 1:]
            if r > 1:
                other = rng.choice([c for c in range(1, r + 1) if c != k])
                yield r, a, a[:i] + [(e, other)] + a[i + 1:]
            yield r, a, a[:i] + a[i + 1:]
    w, v = (0, 1), (1, 2)
    yield 2, [w, w, v], [w, v, v]
    yield 1, [(0, 1), (2, 1)], [(1, 1), (1, 1)]


def test_sorted_weights_agree_with_rows_and_the_verdict(monkeypatch):
    # oracle: two weight lists have equal sorted lists exactly when their
    # rows e_1..e_n, det_inv are equal, and verify_main_theorem passes
    # exactly then, with b as every fixed point's eigenvalues against a
    # as its weights (n = len(a))
    outcomes = Counter()
    for r, a, b in _oracle_pairs():
        n = len(a)
        equal = sorted(a) == sorted(b)
        assert (ktheory._row(a, n, r) == ktheory._row(b, n, r)) == equal
        monkeypatch.setattr(ktheory, "fixed_point_character",
                            lambda mp, r: a)
        monkeypatch.setattr(ktheory, "jm_eigenvalues", lambda mp, r: b)
        assert verify_main_theorem(n, r).passed == equal, (r, a, b)
        outcomes[equal] += 1
    assert outcomes[True] >= 12 and outcomes[False] >= 12


def test_oracle_pairs_cover_the_edges():
    pairs = list(_oracle_pairs())
    assert {r for r, _, _ in pairs} == {1, 2, 3}
    assert any(len(b) < len(a) for _, a, b in pairs)
    assert any(a != b and sorted(a) == sorted(b) for _, a, b in pairs)
    assert any(set(a) == set(b) and sorted(a) != sorted(b)
               for _, a, b in pairs)
    assert any(len(set(a)) < len(a) for _, a, _ in pairs)
    assert any(e < 0 for _, a, _ in pairs for e, _ in a)
    changed = [{(e - f, k - c) for (e, k), (f, c) in zip(a, b)} - {(0, 0)}
               for _, a, b in pairs if len(a) == len(b)]
    assert {(1, 0)} in changed and {(-1, 0)} in changed
    assert any(len(d) == 1 and next(iter(d))[1] for d in changed)


def test_row_pads_and_cuts_to_n_columns():
    # e_k past the list's length is 0, and e_k past n is not a column
    one, zero = LaurentPoly.const(1, 2), LaurentPoly.zero(2)
    assert ktheory._row([], 2, 1) == [zero, zero, one]
    q, Q1 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
    assert ktheory._row([(0, 1), (1, 1), (2, 1)], 1, 1) == [
        Q1 + q * Q1 + q ** 2 * Q1, q ** -3 * Q1 ** -3]


def test_row_counts_subsets_of_equal_weights():
    # e_4 of eight weights q Q_2 is C(8, 4) q^4 Q_2^4 = 70 q^4 Q_2^4
    row = ktheory._row([(1, 2)] * 8, 8, 2)
    assert row[3] == LaurentPoly.monomial(70, (4, 0, 4))
    assert row[8] == LaurentPoly.monomial(1, (-8, 0, -8))


def _check_shifted_last_weight(monkeypatch, side, shift):
    """verify_main_theorem(3, 2) with the q exponent of the last weight of
    every fixed point raised by shift on one side (the last node's content
    on the algebraic side, the last box's torus weight on the geometric one)
    fails every column at all 10 rows."""
    def shifted(weights):
        weights[-1] = (weights[-1][0] + shift,) + weights[-1][1:]
        return weights

    if side == "algebraic":
        monkeypatch.setattr(ktheory, "jm_eigenvalues", lambda mp, r=None:
                            shifted(jm_eigenvalues(mp, r)))
    else:
        monkeypatch.setattr(ktheory, "fixed_point_character", lambda mp, r:
                            shifted(fixed_point_character(mp, r)))
    rep = verify_main_theorem(3, 2)
    assert rep.status == "fail"
    assert rep.params["rows"] == 10
    # one weight times q^shift moves every e_k and det^-1 at every row
    assert Counter(w["column"] for w in rep.witnesses) == {
        "e1": 10, "e2": 10, "e3": 10, "det_inv": 10}
    # [[3],[]]: weights Q1, q*Q1 and q^2*Q1, the last one shifted
    plain, moved = "Q1 + q*Q1 + q^2*Q1", f"Q1 + q*Q1 + q^{2 + shift}*Q1"
    geometric, algebraic = ((moved, plain) if side == "geometric"
                            else (plain, moved))
    assert rep.witnesses[0] == {
        "multipartition": render_multipartition(
            enumerate_multipartitions(3, 2)[0]),
        "column": "e1", "geometric": geometric, "algebraic": algebraic}


class TestBlocks:
    def test_single_block_case(self):
        rep = verify_blocks(2, 1, 2, (0,))
        assert rep.passed
        assert rep.params["blocks"] == 1
        assert rep.params["classes"] == 1

    def test_two_blocks_n3(self):
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.passed
        assert rep.params["blocks"] == 2
        pairs = sorted((b["class_size"], b["jm_image_dim"])
                       for b in rep.params["per_block"])
        assert pairs == [(1, 1), (2, 2)]

    def test_two_blocks_level_two(self):
        rep = verify_blocks(2, 2, 2, (0, 0))
        assert rep.passed
        assert sorted(b["class_size"] for b in rep.params["per_block"]) == \
            [1, 4]
        for b in rep.params["per_block"]:
            assert b["jm_image_dim"] == b["class_size"]

    @pytest.mark.parametrize("ell,charge", [
        (2, (0, 1)),
        (5, (0, 1)), (5, (0, 2)),
        (7, (0, 1)), (7, (0, 2)),
        (8, (0, 1)), (8, (0, 2)),
        (2, (0, 0)), (3, (1, 3)), (4, (2, -2)), (6, (0, 0)),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_nontrivial_charge(self, ell, charge):
        rep = verify_blocks(2, 2, ell, charge)
        assert rep.passed
        assert rep.params["blocks"] == rep.params["classes"]

    def test_split_failure_is_a_failed_report(self, monkeypatch):
        # when no certified family of idempotents is found the check must
        # fail with a witness, not raise
        from cyclohecke import ktheory
        from cyclohecke.center import IdempotentSplitError

        def no_split(ctx, classes):
            raise IdempotentSplitError("no split found")

        monkeypatch.setattr(ktheory, "central_idempotents", no_split)
        rep = verify_blocks(2, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses == [{"reason": "idempotent splitting failed",
                                  "error": "no split found"}]

    def test_report_is_deterministic(self):
        a = verify_blocks(3, 1, 2, (0,), seed=1).to_json()
        b = verify_blocks(3, 1, 2, (0,), seed=1).to_json()
        assert a == b


class TestBlockMatchingFaults:
    """Each block-matching check fails on its own fault, with its own first
    witness. (3,1) at ell = 2 has the classes (1, 2) = {[2,1]} and
    (2, 1) = {[3], [1,1,1]}, and two blocks."""

    def test_moved_multipartition_makes_class_spectra_not_constant(
            self, monkeypatch):
        from cyclohecke import ktheory

        partition = ktheory.block_partition

        def moved(*args):
            classes = partition(*args)
            classes[(1, 2)].append(classes[(2, 1)].pop(0))
            return classes

        monkeypatch.setattr(ktheory, "block_partition", moved)
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses[0] == {"reason": "class spectra not constant",
                                    "residue": "(1, 2)"}

    def test_equal_spectra_make_classes_share_a_spectrum(self, monkeypatch):
        from cyclohecke import ktheory

        characters = ktheory.specialized_elementary_characters

        def all_first_row(ctx):
            mps, rows = characters(ctx)
            return mps, [rows[0]] * len(rows)

        monkeypatch.setattr(ktheory, "specialized_elementary_characters",
                            all_first_row)
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses[0] == {
            "reason": "distinct residue classes share a spectrum",
            "classes": 2, "spectra": 1}

    def test_perturbed_block_spectrum_matches_no_class(self, monkeypatch):
        # the true spectra of e_1, e_2, e_3 are (1, -1, -1) and (-1, -1, 1)
        from cyclohecke import ktheory

        split = ktheory.central_idempotents

        def perturbed(ctx, classes):
            idempotents, spectra, image_dims = split(ctx, classes)
            first = spectra[0]
            spectra[0] = (first[0] + ctx.domain.one,) + first[1:]
            return idempotents, spectra, image_dims

        monkeypatch.setattr(ktheory, "central_idempotents", perturbed)
        rep = verify_blocks(3, 1, 2, (0,))
        assert rep.status == "fail"
        assert rep.witnesses == [{
            "reason": "block does not match a residue class",
            "spectrum": ["2", "-1", "-1"]}]

    def test_block_count_mismatch_keeps_the_class_witnesses(self,
                                                           monkeypatch):
        # (4,1) at ell = 3 has the classes (1, 1, 2) = {[3,1]},
        # (1, 2, 1) = {[2,1,1]} and (2, 1, 1) = {[4], [2,2], [1,1,1,1]};
        # merging the first into the second leaves two classes for three
        # blocks, and the merged class has two spectra
        from cyclohecke import ktheory

        partition = ktheory.block_partition

        def merged(*args):
            classes = partition(*args)
            classes[(1, 2, 1)] += classes.pop((1, 1, 2))
            return classes

        monkeypatch.setattr(ktheory, "block_partition", merged)
        rep = verify_blocks(4, 1, 3, (0,))
        assert rep.status == "fail"
        assert rep.params["blocks"] == 3
        assert rep.witnesses == [
            {"reason": "class spectra not constant", "residue": "(1, 2, 1)"},
            {"reason": "block count mismatch",
             "residue_classes": ["(1, 2, 1)", "(2, 1, 1)"], "blocks": 3}]

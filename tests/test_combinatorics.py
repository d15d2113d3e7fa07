import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cyclohecke.combinatorics import (
    block_partition,
    content,
    count_multipartitions,
    count_standard_tableaux,
    enumerate_multipartitions,
    enumerate_standard_tableaux,
    jm_eigenvalues,
    nodes,
    partitions_of,
    render_multipartition,
    residue_vector,
)
from cyclohecke.rings import CyclotomicDomain


class TestEnumeration:
    def test_unique_empty_multipartition(self):
        assert enumerate_multipartitions(0, 3) == [((), (), ())]

    def test_five_multipartitions_of_2_level_2(self):
        assert len(enumerate_multipartitions(2, 2)) == 5

    def test_partitions_of_3_in_order(self):
        assert enumerate_multipartitions(3, 1) == [
            ((3,),), ((2, 1),), ((1, 1, 1),)]

    def test_matches_dp_count(self):
        for n in range(9):
            for r in range(1, 5):
                assert len(enumerate_multipartitions(n, r)) == \
                    count_multipartitions(n, r)

    def test_p2_3_is_10(self):
        assert len(enumerate_multipartitions(3, 2)) == 10

    def test_order_is_deterministic(self):
        first = enumerate_multipartitions(3, 2)
        assert first == enumerate_multipartitions(3, 2)
        assert first[0] == ((3,), ())

    def test_render(self):
        assert render_multipartition(((2, 1), (1,))) == "[[2,1],[1]]"
        assert render_multipartition(((), ())) == "[[],[]]"


class TestContents:
    def test_content_examples(self):
        assert content((1, 1, 1)) == 0
        assert content((2, 1, 3)) == -1
        assert content((1, 3, 2)) == 2

    def test_eigenvalue_single_box(self):
        (alpha,) = jm_eigenvalues(((1,),))
        assert alpha == (0, 1)

    def test_eigenvalues_hook(self):
        # nodes (1,1), (1,2), (2,1) of (2,1) have contents 0, 1, -1
        got = Counter(jm_eigenvalues(((2, 1),)))
        expected = Counter([(0, 1), (1, 1), (-1, 1)])
        assert got == expected

    def test_eigenvalues_two_components(self):
        got = Counter(jm_eigenvalues(((1,), (1,))))
        expected = Counter([(0, 1), (0, 2)])
        assert got == expected


class TestStandardTableaux:
    def test_single_row(self):
        for n in range(1, 6):
            assert count_standard_tableaux(((n,),)) == 1

    def test_hook_2_1(self):
        assert count_standard_tableaux(((2, 1),)) == 2

    def test_two_single_boxes(self):
        assert count_standard_tableaux(((1,), (1,))) == 2

    def test_square_sum_matches_pbw_dimension(self):
        # semisimple dimension count: sum over shapes of (#SYT)^2 = r^n n!
        for r in range(1, 5):
            for n in range(0, 9):
                if r ** n * math.factorial(n) > 10 ** 4:
                    continue
                total = sum(
                    count_standard_tableaux(mp) ** 2
                    for mp in enumerate_multipartitions(n, r))
                assert total == r ** n * math.factorial(n), (n, r)

    def test_enumeration_matches_count(self):
        for mp in enumerate_multipartitions(4, 2):
            assert len(list(enumerate_standard_tableaux(mp))) == \
                count_standard_tableaux(mp)

    def test_tableau_assignments_reproduce_eigenvalues(self):
        # the multiset of q^(b-a) Q_c read off entry positions of any
        # standard tableau equals the node-based multiset
        for n in range(1, 5):
            for r in (1, 2):
                for mp in enumerate_multipartitions(n, r):
                    expected = Counter(jm_eigenvalues(mp, r))
                    for t in enumerate_standard_tableaux(mp):
                        got = Counter((b - a, c) for a, b, c in t)
                        assert got == expected


class TestResidues:
    def test_residue_examples(self):
        assert residue_vector(((2,),), 2, (0,)) == (1, 1)
        assert residue_vector(((1, 1),), 2, (0,)) == (1, 1)
        assert residue_vector(((1,), (1,)), 2, (0, 0)) == (2, 0)

    def test_counts_sum_to_n(self):
        for n in range(6):
            for r in (1, 2):
                for mp in enumerate_multipartitions(n, r):
                    assert sum(residue_vector(mp, 3, (0,) * r)) == n

    def test_block_partition_examples(self):
        classes = block_partition(2, 1, 2, (0,))
        assert len(classes) == 1
        assert sorted(len(v) for v in classes.values()) == [2]

        classes = block_partition(2, 2, 2, (0, 0))
        assert sorted(len(v) for v in classes.values()) == [1, 4]
        assert classes[(2, 0)] == [((1,), (1,))]

        classes = block_partition(3, 1, 2, (0,))
        assert classes[(2, 1)] == [((3,),), ((1, 1, 1),)]
        assert classes[(1, 2)] == [((2, 1),)]

    def test_classes_partition_everything(self):
        for n in range(5):
            for r in (1, 2):
                classes = block_partition(n, r, 2, (0,) * r)
                members = [mp for v in classes.values() for mp in v]
                assert sorted(members) == \
                    sorted(enumerate_multipartitions(n, r))

    @pytest.mark.parametrize("modulus,charge_pool", [(2, (0, 1)), (3, (0, 2))])
    def test_residue_vector_consistent_with_specialized_eigenvalues(
            self, modulus, charge_pool):
        # two multipartitions share a residue vector iff their eigenvalue
        # multisets specialized at q = zeta, Q_c = zeta^(s_c) coincide
        dom = CyclotomicDomain(modulus)
        for n in range(1, 5):
            for r in (1, 2):
                charge = tuple(charge_pool[c % len(charge_pool)]
                               for c in range(r))
                q_val = dom.zeta(1)
                Q_vals = [dom.zeta(s) for s in charge]
                specialized = {}
                for mp in enumerate_multipartitions(n, r):
                    specialized[mp] = Counter(
                        q_val ** a * Q_vals[c - 1]
                        for a, c in jm_eigenvalues(mp, r))
                for mp1 in enumerate_multipartitions(n, r):
                    for mp2 in enumerate_multipartitions(n, r):
                        same_residue = residue_vector(mp1, modulus, charge) \
                            == residue_vector(mp2, modulus, charge)
                        same_spec = specialized[mp1] == specialized[mp2]
                        assert same_residue == same_spec, (mp1, mp2)


@st.composite
def multipartition_strategy(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=6))
    options = enumerate_multipartitions(n, r)
    idx = draw(st.integers(min_value=0, max_value=len(options) - 1))
    return options[idx]


@given(multipartition_strategy())
def test_nodes_count_equals_size(mp):
    assert len(nodes(mp)) == sum(sum(p) for p in mp)


@given(multipartition_strategy())
def test_eigenvalue_count_equals_size(mp):
    assert len(jm_eigenvalues(mp)) == sum(sum(p) for p in mp)


@given(multipartition_strategy(), st.integers(min_value=2, max_value=5))
def test_residue_sum_property(mp, modulus):
    charge = (1,) * len(mp)
    assert sum(residue_vector(mp, modulus, charge)) == sum(sum(p) for p in mp)

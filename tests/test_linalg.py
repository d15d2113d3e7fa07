import random
from fractions import Fraction

import pytest

from cyclohecke.linalg import (
    RowSpace,
    kernel_basis,
    rank,
    solve_linear,
)
from cyclohecke.rings import (
    CyclotomicDomain,
    LaurentDomain,
    NotInvertibleError,
    RationalDomain,
    UnsupportedDomainError,
)

DOM = RationalDomain()


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def sparse_matrix(rng, nrows, ncols):
    """Random rational rows with 1 to 3 nonzeros each, like the commutator
    constraints; about a third of them combine two earlier rows so the rank
    drops."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
            continue
        row = [Fraction(0)] * ncols
        for j in rng.sample(range(ncols), min(ncols, rng.randint(1, 3))):
            row[j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                              rng.randint(1, 4))
        rows.append(row)
    return rows


def sparse(vector):
    return dict(enumerate(vector))


def free_columns(matrix, ncols):
    rs = RowSpace(DOM, ncols)
    for row in matrix:
        rs.add(sparse(row))
    return rs.non_pivot_columns()


class TestKernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(frac_matrix([[1, 0], [0, 1]]), DOM) == []

    def test_rank_one_matrix(self):
        basis = kernel_basis(frac_matrix([[1, 1], [2, 2]]), DOM)
        assert len(basis) == 1
        v = basis[0]
        # (1, -1) up to scale
        assert v[0] == -v[1] and v[0] != 0

    def test_cyclotomic_dependent_rows(self):
        dom = CyclotomicDomain(4)
        i = dom.zeta(1)
        matrix = [[dom.one, i], [i, dom.from_int(-1)]]
        basis = kernel_basis(matrix, dom)
        assert len(basis) == 1
        v = basis[0]
        for row in matrix:
            acc = dom.zero
            for a, x in zip(row, v):
                acc = acc + a * x
            assert dom.is_zero(acc)

    def test_fraction_domain_rejected(self):
        # the Laurent ring is not a field: every elimination entry point
        # refuses it
        dom = LaurentDomain(1)
        with pytest.raises(UnsupportedDomainError):
            kernel_basis([[dom.one]], dom)
        with pytest.raises(UnsupportedDomainError):
            rank([[dom.one]], dom)
        with pytest.raises(UnsupportedDomainError):
            solve_linear([[dom.one]], [dom.one], dom)

    def test_rank_nullity_and_exactness_random(self):
        rng = random.Random(11)
        for _ in range(60):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(ncols)] for _ in range(nrows)]
            basis = kernel_basis(matrix, DOM)
            assert rank(matrix, DOM) + len(basis) == ncols
            for v in basis:
                for row in matrix:
                    assert sum(a * x for a, x in zip(row, v)) == 0


class TestSolve:
    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            matrix = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                      for _ in range(n)]
            if rank(matrix, DOM) < n:
                continue
            x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            rhs = [sum(matrix[i][j] * x[j] for j in range(n))
                   for i in range(n)]
            assert solve_linear(matrix, rhs, DOM) == x

    def test_inconsistent_system(self):
        with pytest.raises(NotInvertibleError):
            solve_linear(frac_matrix([[1], [1]]),
                         [Fraction(1), Fraction(2)], DOM)


class TestRowSpace:
    def test_incremental_rank(self):
        rs = RowSpace(DOM, 3)
        assert rs.add({0: Fraction(1), 1: Fraction(1), 2: Fraction(0)})
        assert not rs.add({0: Fraction(2), 1: Fraction(2)})
        assert rs.add({2: Fraction(5)})
        assert rs.rank == 2
        assert rs.contains({0: Fraction(3), 1: Fraction(3), 2: Fraction(-1)})
        assert not rs.contains({0: Fraction(1)})
        assert rs.non_pivot_columns() == [1]

    def test_explicit_zero_is_never_a_pivot(self):
        rs = RowSpace(DOM, 3)
        assert not rs.add({0: Fraction(0), 1: Fraction(0)})
        assert rs.rank == 0
        assert rs.add({0: Fraction(0), 2: Fraction(4)})
        assert rs.pivot_columns() == [2]
        assert rs.rows[2] == {2: Fraction(1)}
        assert rs.contains({0: Fraction(0)})

    def test_reduce_leaves_its_input_unchanged(self):
        rs = RowSpace(DOM, 3)
        rs.add({0: Fraction(1), 1: Fraction(2)})
        vector = {0: Fraction(3), 1: Fraction(0), 2: Fraction(1)}
        before = dict(vector)
        assert rs.reduce(vector) == {1: Fraction(-6), 2: Fraction(1)}
        assert rs.contains(vector) is False
        rs.add(vector)
        assert vector == before


class TestSympyOracle:
    def test_rank_nullity_and_kernel_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            matrix = sparse_matrix(rng, nrows, ncols)
            oracle = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row]
                 for row in matrix])
            basis = kernel_basis(matrix, DOM)
            assert rank(matrix, DOM) == oracle.rank()
            assert len(basis) == len(oracle.nullspace())
            for v in basis:
                image = oracle * sympy.Matrix(
                    [sympy.Rational(x.numerator, x.denominator) for x in v])
                assert image == sympy.zeros(nrows, 1)


class TestCanonicalForm:
    def test_kernel_vectors_are_unit_on_free_columns(self):
        rng = random.Random(23)
        for _ in range(60):
            ncols = rng.randint(1, 10)
            matrix = sparse_matrix(rng, rng.randint(1, 10), ncols)
            free = free_columns(matrix, ncols)
            basis = kernel_basis(matrix, DOM)
            assert len(basis) == len(free)
            for own, v in zip(free, basis):
                assert [v[c] for c in free] == [int(c == own) for c in free]

    def test_kernel_independent_of_row_order(self):
        rng = random.Random(29)
        for _ in range(30):
            matrix = sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            shuffled = rng.sample(matrix, len(matrix))
            assert kernel_basis(shuffled, DOM) == kernel_basis(matrix, DOM)

    def test_reduce_clears_every_pivot_column(self):
        rng = random.Random(31)
        for _ in range(60):
            ncols = rng.randint(1, 10)
            rs = RowSpace(DOM, ncols)
            for row in sparse_matrix(rng, rng.randint(1, 10), ncols):
                rs.add(sparse(row))
            vector = sparse_matrix(rng, 1, ncols)[0]
            residual = rs.reduce(sparse(vector))
            assert all(pc not in residual for pc in rs.pivot_columns())
            assert rs.contains(sparse(
                [x - residual.get(j, 0) for j, x in enumerate(vector)]))

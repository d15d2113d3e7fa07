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


def sparse(vector):
    return {j: x for j, x in enumerate(vector) if x}


def frac_rows(rows):
    return [sparse([Fraction(x) for x in row]) for row in rows]


def apply(row, vector, zero=0):
    """The entry row @ vector of sparse row and vector."""
    return sum((x * vector.get(j, zero) for j, x in row.items()), zero)


def sparse_matrix(rng, nrows, ncols):
    """Random rational sparse rows with 1 to 3 nonzeros each, like the
    commutator constraints; about a third of them combine two earlier rows
    so the rank drops."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            row = dict(a)
            for j, y in b.items():
                row[j] = row.get(j, 0) + c * y
            rows.append({j: x for j, x in row.items() if x})
            continue
        rows.append({
            j: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                        rng.randint(1, 4))
            for j in rng.sample(range(ncols), min(ncols, rng.randint(1, 3)))})
    return rows


def free_columns(rows, ncols):
    rs = RowSpace(DOM, ncols)
    for row in rows:
        rs.add(row)
    return rs.non_pivot_columns()


class TestKernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(frac_rows([[1, 0], [0, 1]]), DOM, 2) == []

    def test_rank_one_matrix(self):
        basis = kernel_basis(frac_rows([[1, 1], [2, 2]]), DOM, 2)
        assert len(basis) == 1
        v = basis[0]
        # (1, -1) up to scale
        assert v[0] == -v[1] and v[0] != 0

    def test_cyclotomic_dependent_rows(self):
        dom = CyclotomicDomain(4)
        i = dom.zeta(1)
        rows = [{0: dom.one, 1: i}, {0: i, 1: dom.from_int(-1)}]
        basis = kernel_basis(rows, dom, 2)
        assert len(basis) == 1
        for row in rows:
            assert dom.is_zero(apply(row, basis[0], dom.zero))

    def test_fraction_domain_rejected(self):
        # the Laurent ring is not a field: every elimination entry point
        # refuses it
        dom = LaurentDomain(1)
        with pytest.raises(UnsupportedDomainError):
            kernel_basis([{0: dom.one}], dom, 1)
        with pytest.raises(UnsupportedDomainError):
            rank([{0: dom.one}], dom)
        with pytest.raises(UnsupportedDomainError):
            solve_linear([{0: dom.one}], [dom.one], dom, 1)

    def test_rank_nullity_and_exactness_random(self):
        rng = random.Random(11)
        for _ in range(60):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [sparse([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(ncols)]) for _ in range(nrows)]
            basis = kernel_basis(rows, DOM, ncols)
            assert rank(rows, DOM) + len(basis) == ncols
            for v in basis:
                for row in rows:
                    assert apply(row, v) == 0


class TestSolve:
    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [sparse([Fraction(rng.randint(-5, 5)) for _ in range(n)])
                    for _ in range(n)]
            if rank(rows, DOM) < n:
                continue
            x = sparse([Fraction(rng.randint(-5, 5)) for _ in range(n)])
            rhs = [apply(row, x) for row in rows]
            assert solve_linear(rows, rhs, DOM, n) == x

    def test_inconsistent_system(self):
        with pytest.raises(NotInvertibleError):
            solve_linear(frac_rows([[1], [1]]),
                         [Fraction(1), Fraction(2)], DOM, 1)

    def test_empty_row_takes_part(self):
        # an empty row is the equation 0 = rhs: consistent only for rhs 0
        rows = [{0: Fraction(2)}, {}]
        assert solve_linear(rows, [Fraction(1), Fraction(0)], DOM, 1) == {
            0: Fraction(1, 2)}
        with pytest.raises(NotInvertibleError):
            solve_linear(rows, [Fraction(1), Fraction(1)], DOM, 1)


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
        assert sorted(rs.rows) == [2]
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
            rows = sparse_matrix(rng, nrows, ncols)

            def column(v):
                return [sympy.Rational(v.get(j, 0)) for j in range(ncols)]
            oracle = sympy.Matrix([column(row) for row in rows])
            basis = kernel_basis(rows, DOM, ncols)
            assert rank(rows, DOM) == oracle.rank()
            assert len(basis) == len(oracle.nullspace())
            for v in basis:
                image = oracle * sympy.Matrix(column(v))
                assert image == sympy.zeros(nrows, 1)


class TestCanonicalForm:
    def test_kernel_vectors_are_unit_on_free_columns(self):
        rng = random.Random(23)
        for _ in range(60):
            ncols = rng.randint(1, 10)
            rows = sparse_matrix(rng, rng.randint(1, 10), ncols)
            free = free_columns(rows, ncols)
            basis = kernel_basis(rows, DOM, ncols)
            assert len(basis) == len(free)
            for own, v in zip(free, basis):
                assert v[own] == 1
                assert [c for c in free if c in v] == [own]

    def test_kernel_independent_of_row_order(self):
        rng = random.Random(29)
        for _ in range(30):
            ncols = rng.randint(1, 8)
            rows = sparse_matrix(rng, rng.randint(1, 8), ncols)
            shuffled = rng.sample(rows, len(rows))
            assert kernel_basis(shuffled, DOM, ncols) == \
                kernel_basis(rows, DOM, ncols)

    def test_reduce_clears_every_pivot_column(self):
        rng = random.Random(31)
        for _ in range(60):
            ncols = rng.randint(1, 10)
            rs = RowSpace(DOM, ncols)
            for row in sparse_matrix(rng, rng.randint(1, 10), ncols):
                rs.add(row)
            vector = sparse_matrix(rng, 1, ncols)[0]
            residual = rs.reduce(vector)
            assert all(pc not in residual for pc in rs.rows)
            difference = dict(vector)
            for j, y in residual.items():
                difference[j] = difference.get(j, 0) - y
            assert rs.contains(difference)

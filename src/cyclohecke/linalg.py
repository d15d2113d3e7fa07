"""Exact linear algebra over the field domains (rationals, cyclotomic
fields), built on one sparse reduced row echelon form.

A RowSpace takes and returns sparse vectors, dicts {column: entry}: explicit
zero entries are ignored and an argument is never modified. It holds its
rows in reduced row echelon form: each row has a 1 at its pivot (its first
nonzero column) and a 0 at every other pivot. Rank, kernels and solving take
dense row lists and feed their rows into a RowSpace. The reduced form of a
row space is unique, so every result is independent of row order: kernel
vectors have a 1 at their own free column and a 0 at the other free columns,
and solutions set free variables to 0.
"""

from __future__ import annotations

from .rings import LaurentDomain, NotInvertibleError, UnsupportedDomainError


class RowSpace:
    """Incrementally maintained sparse reduced row echelon form over a field
    domain; the Laurent ring, where only monomials are units, is rejected."""

    def __init__(self, domain, ncols):
        if isinstance(domain, LaurentDomain):
            raise UnsupportedDomainError(
                "linear algebra needs a field domain, not the Laurent ring")
        self.domain = domain
        self.ncols = ncols
        self.rows = {}  # pivot column -> {column: entry}, 1 at the pivot

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vector):
        """Sparse residual of a sparse vector: zero at every pivot column.

        One pass suffices because each stored row is zero at the other
        pivots, so clearing one pivot leaves the others untouched."""
        is_zero = self.domain.is_zero
        v = {j: x for j, x in vector.items() if not is_zero(x)}
        for pc in [c for c in v if c in self.rows]:
            self._subtract(v, v[pc], self.rows[pc])
        return v

    def _subtract(self, target, factor, row):
        """target -= factor * row in place, dropping entries that cancel."""
        is_zero = self.domain.is_zero
        for j, x in row.items():
            y = target[j] - factor * x if j in target else -factor * x
            if is_zero(y):
                del target[j]
            else:
                target[j] = y

    def _add(self, vector):
        v = self.reduce(vector)
        if not v:
            return False
        d = self.domain
        pc = min(v)
        inv = d.inv(v[pc])
        row = {j: x * inv for j, x in v.items()}
        row[pc] = d.one
        for other in self.rows.values():
            if pc in other:
                self._subtract(other, other[pc], row)
        self.rows[pc] = row
        return True

    def add(self, vector):
        """Add a vector; returns True if it enlarged the span."""
        return self._add(vector)

    def contains(self, vector):
        return not self.reduce(vector)

    def pivot_columns(self):
        return sorted(self.rows)

    def non_pivot_columns(self):
        return [c for c in range(self.ncols) if c not in self.rows]


def _row_space(matrix, domain, ncols):
    space = RowSpace(domain, ncols)
    for row in matrix:
        space._add(dict(enumerate(row)))
    return space


def rank(matrix, domain):
    if not matrix:
        return 0
    return _row_space(matrix, domain, len(matrix[0])).rank


def kernel_basis(matrix, domain):
    """Exact basis of the right kernel, one vector per free column: 1 there,
    0 at the other free columns, minus that column's entries at the pivots.
    """
    if not matrix:
        return []
    space = _row_space(matrix, domain, len(matrix[0]))
    basis = []
    for free in space.non_pivot_columns():
        vec = [domain.zero] * space.ncols
        vec[free] = domain.one
        for pc, row in space.rows.items():
            if free in row:
                vec[pc] = -row[free]
        basis.append(vec)
    return basis


def solve_linear(matrix, rhs, domain):
    """One exact solution of matrix @ x = rhs with free variables 0, or
    NotInvertibleError when the system is inconsistent (works over any field
    domain)."""
    ncols = len(matrix[0]) if matrix else 0
    space = _row_space(
        (list(row) + [b] for row, b in zip(matrix, rhs)), domain, ncols + 1)
    if ncols in space.rows:
        raise NotInvertibleError("inconsistent linear system")
    x = [domain.zero] * ncols
    for pc, row in space.rows.items():
        x[pc] = row.get(ncols, domain.zero)
    return x

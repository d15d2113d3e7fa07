"""Exact linear algebra over the field domains (rationals, cyclotomic
fields, the prime field), built on one sparse reduced row echelon form.

A RowSpace takes and returns sparse vectors, dicts {column: entry}: explicit
zero entries are ignored and an argument is never modified. It holds its
rows in reduced row echelon form: each row has a 1 at its pivot (its first
nonzero column) and a 0 at every other pivot. Rank, kernels and solving take
a list of such rows, feed them into a RowSpace and return sparse vectors.
The reduced form of a row space is unique, so every result is independent of
row order: kernel vectors have a 1 at their own free column and no entry at
the other free columns, and solutions set free variables to 0.
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
        add_scaled = self.domain.add_scaled
        v = self.domain.nonzero(vector)
        for pc in [c for c in v if c in self.rows]:
            add_scaled(v, self.rows[pc], -v[pc])
        return v

    def _add(self, vector):
        v = self.reduce(vector)
        if not v:
            return False
        d = self.domain
        pc = min(v)
        row = d.scale(v, d.inv(v[pc]))
        row[pc] = d.one
        for other in self.rows.values():
            if pc in other:
                d.add_scaled(other, row, -other[pc])
        self.rows[pc] = row
        return True

    def add(self, vector):
        """Add a vector; returns True if it enlarged the span."""
        return self._add(vector)

    def contains(self, vector):
        return not self.reduce(vector)

    def non_pivot_columns(self):
        return [c for c in range(self.ncols) if c not in self.rows]


def transpose(cols, nrows):
    """The rows of a matrix given by its sparse columns: one {column: entry}
    dict per row index below nrows, empty rows included."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _row_space(rows, domain, ncols):
    space = RowSpace(domain, ncols)
    for row in rows:
        space._add(row)
    return space


def rank(rows, domain):
    ncols = max((j + 1 for row in rows for j in row), default=0)
    return _row_space(rows, domain, ncols).rank


def kernel_basis(rows, domain, ncols):
    """Exact basis of the right kernel, one vector per free column: 1 there,
    minus that column's entries at the pivots, no other entries."""
    space = _row_space(rows, domain, ncols)
    basis = []
    for free in space.non_pivot_columns():
        vec = {free: domain.one}
        for pc, row in space.rows.items():
            if free in row:
                vec[pc] = -row[free]
        basis.append(vec)
    return basis


def solve_linear(rows, rhs, domain, ncols):
    """One exact solution x of rows @ x = rhs (one rhs entry per row) with
    free variables 0, or NotInvertibleError when the system is inconsistent
    (works over any field domain)."""
    return solve_many(rows, [rhs], domain, ncols)[0]


def solve_many(rows, rhss, domain, ncols):
    """solve_linear for each right-hand side in rhss, from one elimination
    of rows augmented by all of them (right-hand side t in column
    ncols + t); NotInvertibleError when any system is inconsistent."""
    space = _row_space(
        ({**row, **{ncols + t: rhs[i] for t, rhs in enumerate(rhss)}}
         for i, row in enumerate(rows)), domain, ncols + len(rhss))
    if any(pc >= ncols for pc in space.rows):
        raise NotInvertibleError("inconsistent linear system")
    return [{pc: row[ncols + t] for pc, row in space.rows.items()
             if ncols + t in row} for t in range(len(rhss))]

"""Partitions, multipartitions, tableaux, contents and residue data.

Multipartitions index both the torus fixed points and the cell modules, so
their enumeration order is fixed and documented: component size vectors in
descending lexicographic order, then partitions of each component in
descending lexicographic order, leftmost component slowest. Reports and
cached tables rely on this order being byte-stable.

>>> enumerate_multipartitions(2, 2)
[((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
"""

from __future__ import annotations

import itertools
from functools import cache


@cache
def partitions_of(n):
    """All partitions of n as weakly decreasing tuples, in descending
    lexicographic order: (3,), (2, 1), (1, 1, 1)."""
    if n < 0:
        raise ValueError("negative size")

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


@cache
def _compositions(n, r):
    """Weak compositions of n into r parts, descending lexicographic."""
    if r == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1)
            for rest in _compositions(n - first, r - 1)]


@cache
def enumerate_multipartitions(n, r):
    """All r-tuples of partitions with total size n, in the canonical order
    (see module docstring)."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    out = []
    for sizes in _compositions(n, r):
        for combo in itertools.product(*(partitions_of(m) for m in sizes)):
            out.append(combo)
    return out


def count_multipartitions(n, r):
    """Independent dynamic-programming count of |multipartitions|, used to
    cross-check the enumeration (r-fold convolution of partition counts)."""
    # p(k) by Euler's recurrence-free DP over part sizes
    p = [0] * (n + 1)
    p[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    counts = [0] * (n + 1)
    counts[0] = 1
    for _ in range(r):
        counts = [
            sum(counts[total - k] * p[k] for k in range(total + 1))
            for total in range(n + 1)
        ]
    return counts[n]


def multipartition_size(mp):
    return sum(sum(part) for part in mp)


def nodes(mp):
    """Nodes (a, b, c) of a multipartition, 1-based row/column/component, in
    component-row-column order."""
    out = []
    for c, part in enumerate(mp, start=1):
        for a, row_len in enumerate(part, start=1):
            for b in range(1, row_len + 1):
                out.append((a, b, c))
    return out


def content(node):
    """Content of a node (a, b, c): the integer b - a."""
    a, b, _ = node
    return b - a


def jm_eigenvalues(mp, r=None):
    """Multiset of Jucys-Murphy eigenvalues q^(b-a) * Q_c, one per node, as
    the pairs (b - a, c).

    Tableau-independent by construction: iterates nodes directly rather than
    standard tableaux. The list is fresh; the per-component ones are cached,
    keyed by each component as a tuple, so any sequence of row lengths works.
    """
    if r is not None and len(mp) != r:
        raise ValueError("component count mismatch")
    out = []
    for c, part in enumerate(mp, start=1):
        out += _component_eigenvalues(tuple(part), c)
    return out


@cache
def _component_eigenvalues(part, c):
    """The pairs (b - a, c) of the nodes of partition part as component c."""
    return [(b - a, c) for a, b, _ in nodes((part,))]


def _addable_positions(filled, shape):
    """Positions (component, row) where the next entry may be placed, given
    per-row filled counts."""
    out = []
    for c, part in enumerate(shape):
        counts = filled[c]
        for row, row_len in enumerate(part):
            if counts[row] < row_len and (row == 0 or counts[row] < counts[row - 1]):
                out.append((c, row))
    return out


def count_standard_tableaux(mp):
    """Number of standard tableaux of the given multipartition shape, by
    exhaustive backtracking over placements of 1..n."""
    n = multipartition_size(mp)
    filled = [[0] * len(part) for part in mp]

    def place(k):
        if k > n:
            return 1
        total = 0
        for c, row in _addable_positions(filled, mp):
            filled[c][row] += 1
            total += place(k + 1)
            filled[c][row] -= 1
        return total

    return place(1)


def enumerate_standard_tableaux(mp):
    """Yield standard tableaux as dicts node -> entry (nodes 1-based)."""
    n = multipartition_size(mp)
    filled = [[0] * len(part) for part in mp]
    assignment = {}

    def place(k):
        if k > n:
            yield dict(assignment)
            return
        for c, row in _addable_positions(filled, mp):
            col = filled[c][row]
            node = (row + 1, col + 1, c + 1)
            filled[c][row] += 1
            assignment[node] = k
            yield from place(k + 1)
            del assignment[node]
            filled[c][row] -= 1

    yield from place(1)


def residue_vector(mp, modulus, charge):
    """Counts of node residues (b - a + s_c) mod modulus; the combinatorial
    block label at a root of unity with multicharge s."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if len(charge) != len(mp):
        raise ValueError("multicharge length must equal the level")
    counts = [0] * modulus
    for node in nodes(mp):
        _, _, c = node
        counts[(content(node) + charge[c - 1]) % modulus] += 1
    return tuple(counts)


def block_partition(n, r, modulus, charge):
    """Group the multipartitions of (n, r) by residue vector; keys sorted for
    deterministic reporting."""
    groups = {}
    for mp in enumerate_multipartitions(n, r):
        groups.setdefault(residue_vector(mp, modulus, charge), []).append(mp)
    return dict(sorted(groups.items()))


def render_multipartition(mp):
    """Nested bracket rendering, e.g. [[2,1],[1]]."""
    return "[" + ",".join(
        "[" + ",".join(str(p) for p in part) + "]" for part in mp) + "]"


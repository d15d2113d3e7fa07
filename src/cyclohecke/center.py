"""Center, Jucys-Murphy center, characters, cocenter and block idempotents.

The character map sends a central element acting on the cell module indexed
by a multipartition to its scalar; for symmetric Laurent polynomials in the
Jucys-Murphy elements that scalar is the polynomial evaluated on the
content-eigenvalue multiset of the multipartition, so everything here is
computable from combinatorics plus exact linear algebra.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb

from .combinatorics import enumerate_multipartitions, jm_eigenvalues
from .hecke import AlgebraElement
from .linalg import RowSpace, kernel_basis, rank, solve_linear, transpose
from .rings import (
    LaurentPoly,
    NotInvertibleError,
    elementary_symmetric,
    specialize,
)


class SingularGramError(Exception):
    """The trace Gram matrix between center and cocenter is singular at the
    given specialization."""


class IdempotentSplitError(Exception):
    """The components read off the Jucys-Murphy spectra are not a family of
    primitive central idempotents: a lift did not converge, a component is
    zero or not primitive, or the family is not orthogonal, central and
    complete."""


# ---------------------------------------------------------------------------
# center of the algebra
# ---------------------------------------------------------------------------

def commutator_operators(ctx):
    """For each generator g of T_1..T_{n-1}, L_1, the sparse columns of
    ad_g: b -> g b - b g. Left multiplication is the cached generator
    matrix, right multiplication by T_i is right_T_matrix, and only b L_1
    takes products. The common kernel of the ad_g is the center; the span
    of all their columns is [H, H]."""
    lefts = [ctx._matrices[("T", i)] for i in range(ctx.n - 1)]
    lefts.append(ctx._matrices[("L", 1)])
    rights = [ctx.right_T_matrix(i) for i in range(1, ctx.n)]
    rights.append(ctx.right_multiplication_matrix(ctx.jm_element(1)))
    minus_one = -ctx.domain.one
    ops = []
    for left, right in zip(lefts, rights):
        ops.append([dict(col) for col in left])
        for col, right_col in zip(ops[-1], right):
            ctx._add_scaled(col, right_col, minus_one)
    return ops


def center_basis(ctx):
    """Exact basis of the center {z : z T_i = T_i z, z L_1 = L_1 z}: the
    common kernel of the commutator operators, whose columns are transposed
    into constraint rows (generator by generator, nonzero rows only).

    The kernel needs a field domain: over the symbolic Laurent ring this
    raises UnsupportedDomainError unless there are no constraints at all;
    use sampled rational specializations instead.
    """
    rows = []
    for cols in commutator_operators(ctx):
        rows.extend(row for row in transpose(cols, ctx.dim) if row)
    if not rows:
        return [ctx.basis_element(i) for i in range(ctx.dim)]
    return [AlgebraElement(ctx, v)
            for v in kernel_basis(rows, ctx.domain, ctx.dim)]


def is_central(ctx, x):
    """Whether x commutes with the generators T_1..T_{n-1}, L_1, hence with
    the whole algebra."""
    return all(x * g == g * x for g in ctx.generators())


# ---------------------------------------------------------------------------
# Jucys-Murphy center
# ---------------------------------------------------------------------------

@dataclass
class JMCenterSpan:
    """Stabilized linear span of monomials in e_1..e_n and e_n^{-1}.

    Each basis element carries its monomial descriptor: exponents
    (d_1..d_n, d_inv) meaning prod_k e_k^{d_k} * (e_n^{-1})^{d_inv}, which is
    what makes exact character evaluation cheap. generators holds e_1..e_n
    and e_n^{-1}; in_center says whether they all lie in the center the
    span was given (None without one).
    """

    rank: int
    elements: list
    descriptors: list
    capped: bool
    generators: list
    in_center: bool | None


def jm_center_span(ctx, center=None):
    """Span monomials in the elementary symmetric functions of the JM
    elements (and the inverse of the top one) until the span stabilizes,
    or mark the span capped after n*r + n + 10 rounds.

    Each candidate is one operator application, e_k x or e_n^{-1} x, to an
    earlier monomial x; the monomials commute pairwise, so this is x e_k.
    So every span element is a product of generators, and a property closed
    under products holds on the span once it holds on them. center, the
    RowSpace of the center, gives the inclusion certificate JM <= Z
    (in_center) and, when it holds, an exact early stop: the loop ends as
    soon as the span has the center's rank. Otherwise it runs to the
    end."""
    n = ctx.n
    max_rounds = n * ctx.r + n + 10
    one = ctx.one()
    generators = [ctx.symmetric_jm(k) for k in range(1, n + 1)]
    generators.append(ctx.symmetric_jm_inverse())
    in_center = target = None
    if center is not None:
        in_center = all(center.contains(g.terms) for g in generators)
        if in_center:
            target = center.rank
    span = RowSpace(ctx.domain, ctx.dim)
    zero_desc = (0,) * (n + 1)
    span.add(one.terms)
    elements = [one]
    descriptors = [zero_desc]
    queue = deque([(one, zero_desc, 0)])  # breadth first: round = depth + 1
    capped = False
    while queue and span.rank != target:
        element, desc, depth = queue.popleft()
        if depth == max_rounds:
            capped = True
            break
        if element is one:  # e_k 1 and e_n^{-1} 1, already built
            candidates = [g.terms for g in generators]
        else:
            candidates = ctx.apply_symmetric_jm(element.terms)
            candidates.append(ctx.apply_symmetric_jm_inverse(element.terms))
        for slot, vec in enumerate(candidates):
            if span.add(vec):
                new_desc = tuple(
                    d + (1 if i == slot else 0) for i, d in enumerate(desc))
                candidate = AlgebraElement(ctx, vec)
                elements.append(candidate)
                descriptors.append(new_desc)
                queue.append((candidate, new_desc, depth + 1))
                if span.rank == target:
                    break
    return JMCenterSpan(span.rank, elements, descriptors, capped, generators,
                        in_center)


def center_and_jm_span(ctx):
    """The center as one RowSpace of its basis, and the JM-center span
    stopped early against it, which carries the inclusion certificate."""
    center = RowSpace(ctx.domain, ctx.dim)
    for z in center_basis(ctx):
        center.add(z.terms)
    return center, jm_center_span(ctx, center)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def central_characters(f, n, r):
    """The character vector of a symmetric Laurent polynomial f in n
    variables: its value on the JM eigenvalue multiset of each multipartition
    of (n, r), as Laurent polynomials in (q, Q_1..Q_r).

    Rejects non-symmetric input; the result does not depend on the
    eigenvalue ordering precisely because f is symmetric.
    """
    if f.nvars != n:
        raise ValueError("expression must have one variable per JM element")
    if not f.is_symmetric():
        raise ValueError("expression is not symmetric")
    out = []
    for mp in enumerate_multipartitions(n, r):
        values = jm_eigenvalues(mp, r)
        total = LaurentPoly.zero(1 + r)
        for exps, coeff in f.terms.items():
            term = LaurentPoly.const(coeff, 1 + r)
            for v, e in zip(values, exps):
                if e:
                    term = term * v ** e
            total = total + term
        out.append(total)
    return out


def specialized_elementary_characters(ctx):
    """For each multipartition, the specialized scalars of e_1..e_n on its
    cell module: elementary symmetric functions of the specialized JM
    eigenvalues. Returns (multipartitions, rows of n domain values)."""
    d = ctx.domain
    mps = enumerate_multipartitions(ctx.n, ctx.r)
    rows = []
    for mp in mps:
        alphas = [
            specialize(m, ctx.q_val, ctx.Q_vals, d)
            for m in jm_eigenvalues(mp, ctx.r)
        ]
        rows.append(elementary_symmetric(alphas, d.one)[1:])
    return mps, rows


def descriptor_characters(ctx, descriptors):
    """Character matrix of JM-center monomial descriptors: rows indexed by
    multipartitions, one column per descriptor."""
    d = ctx.domain
    _, rows = specialized_elementary_characters(ctx)
    out = []
    for values in rows:
        e_top_inv = d.inv(values[-1])
        row = []
        for desc in descriptors:
            val = d.one
            for k in range(ctx.n):
                for _ in range(desc[k]):
                    val = val * values[k]
            for _ in range(desc[ctx.n]):
                val = val * e_top_inv
            row.append(val)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# cocenter
# ---------------------------------------------------------------------------

@dataclass
class CocenterCoordinates:
    """Coordinates on H / [H, H]: the commutator row space plus the basis
    words indexing its complement (non-pivot columns)."""

    span: RowSpace
    complement: list  # basis indices

    @property
    def dim(self):
        return len(self.complement)


def commutator_coordinates(ctx):
    """[H, H] as the span of the commutator operator columns g b - b g over
    PBW basis words b and generators g (commutators are derivation-like in
    each argument, so this span is the whole commutator subspace)."""
    span = RowSpace(ctx.domain, ctx.dim)
    for cols in commutator_operators(ctx):
        for col in cols:
            span.add(col)
    return CocenterCoordinates(span, span.non_pivot_columns())


def cocenter_dim(ctx):
    return commutator_coordinates(ctx).dim


def trace_gram_matrix(ctx, span, coords):
    """Gram matrix tau(z_i * b_j) between the JM-center basis and the
    cocenter complement words, as sparse rows {position in the complement:
    entry}, each computed as tau(b_j * z_i) (z_i is central), the path of
    one word; SingularGramError when not invertible."""
    is_zero = ctx.domain.is_zero
    gram = [{k: x for k, j in enumerate(coords.complement)
             if not is_zero(x := (ctx.basis_element(j) * z).tau())}
            for z in span.elements]
    if not gram or len(gram) != coords.dim:
        raise SingularGramError("center and cocenter coordinates differ")
    if rank(gram, ctx.domain) != len(gram):
        raise SingularGramError("trace Gram matrix is singular")
    return gram


def character_dual(ctx, x, span=None, coords=None, gram=None):
    """The unique cocenter class with tau(z * result) = sum over
    multipartitions of char(z) * x, for all z in the JM-center basis; this is
    the adjoint of the character map under the trace pairing.

    Raises SingularGramError at non-generic parameters.
    """
    if span is None:
        span = jm_center_span(ctx)
    if coords is None:
        coords = commutator_coordinates(ctx)
    mps = enumerate_multipartitions(ctx.n, ctx.r)
    if span.rank != len(mps) or coords.dim != len(mps):
        raise SingularGramError(
            "center/cocenter dimensions do not match the fixed points")
    if gram is None:
        gram = trace_gram_matrix(ctx, span, coords)
    char_matrix = descriptor_characters(ctx, span.descriptors)
    d = ctx.domain
    rhs = []
    for i in range(len(span.elements)):
        acc = d.zero
        for lam in range(len(mps)):
            acc = acc + char_matrix[lam][i] * x[lam]
        rhs.append(acc)
    try:
        sol = solve_linear(gram, rhs, d, coords.dim)
    except NotInvertibleError as exc:
        raise SingularGramError(str(exc)) from exc
    return {coords.complement[k]: c for k, c in sol.items()}


# ---------------------------------------------------------------------------
# block idempotents
# ---------------------------------------------------------------------------

def _spectrum_classes(ctx):
    """The distinct specialized (e_1..e_n) rows over all multipartitions, in
    order of first appearance: one row per Jucys-Murphy spectrum class."""
    _, rows = specialized_elementary_characters(ctx)
    classes = []
    for row in rows:
        if row not in classes:
            classes.append(row)
    return classes


def _separating_element(ctx, classes):
    """A central z = sum_k c_k e_k with small integer weights c_k = t^(k-1)
    whose scalars lambda_C = sum_k c_k s_k differ across the classes; each
    class pair rules out at most n - 1 values of t, so the search ends."""
    d = ctx.domain
    t = 0
    while True:
        weights = [t ** k for k in range(ctx.n)]
        values = [sum((s * c for c, s in zip(weights, row)), d.zero)
                  for row in classes]
        if all(not d.is_zero(values[i] - values[j])
               for i in range(len(values)) for j in range(i)):
            break
        t += 1
    z = ctx.zero()
    for k, c in enumerate(weights, start=1):
        if c:
            z = z + ctx.symmetric_jm(k) * c
    return z, values


def _lift_idempotent(ctx, e):
    """Newton lift e <- 3e^2 - 2e^3 of an element idempotent modulo a
    nilpotent error: the error e^2 - e goes to a multiple of its own square
    each round, so it vanishes within dim.bit_length() + 1 rounds."""
    for _ in range(ctx.dim.bit_length() + 1):
        square = e * e
        if square == e:
            return e
        e = square * 3 - square * e * 2
    raise IdempotentSplitError("idempotent lift did not converge")


def _single_eigenvalues(ctx, eps, elements):
    """The eigenvalue of each central element on the ideal eps * Z, or None
    if one of them has more than one there."""
    values = [unique_eigenvalue(ctx, min_poly_on_center_ideal(ctx, eps, x))
              for x in elements]
    return None if any(v is None for v in values) else values


def central_idempotents(ctx):
    """The complete set of primitive central idempotents of a specialized
    algebra, read off the Jucys-Murphy spectra, as (idempotents, spectra,
    span): spectra[i] holds the eigenvalues of e_1..e_n on idempotents[i] Z,
    and span is the JM-center span, stopped early against the center.

    Multipartitions are grouped by the scalars of e_1..e_n on their cell
    modules. A central z = sum_k c_k e_k separates the classes, and the
    Lagrange element prod_{D != C} (z - lambda_D) / (lambda_C - lambda_D)
    is, up to a nilpotent error, the sum of the block idempotents in class
    C; the Newton lift removes the error. Each component eps must be
    nonzero, and e_1..e_n must each have a single eigenvalue on eps Z. When
    the span is the center, Z is generated by e_1..e_n and e_n^{-1}, so
    eps Z is then K eps plus a nilpotent ideal: local, and eps primitive
    over any extension of the coefficient field. Otherwise (rank JM <
    dim Z) the center basis joins the certificate. The family must be
    idempotent, orthogonal, central and sum to one; any failure raises
    IdempotentSplitError. Primitive central idempotents are unique, so a
    family passing these checks is the block decomposition whatever built
    it.

    Needs q != 1: at q = 1 a node's eigenvalue Q_c q^content forgets the
    content, so the spectra cannot separate the blocks; a component is then
    not primitive and the call raises. No command-line path specializes
    to q = 1.
    """
    d = ctx.domain
    center, span = center_and_jm_span(ctx)
    certified = span.generators[:-1]  # e_1..e_n
    if not (span.in_center and span.rank == center.rank):
        certified += [AlgebraElement(ctx, row) for row in center.rows.values()]
    z, values = _separating_element(ctx, _spectrum_classes(ctx))
    factors = [z - v for v in values]
    blocks = []
    for i, value in enumerate(values):
        e = ctx.one()
        for j, other in enumerate(values):
            if j != i:
                e = e * factors[j] * d.inv(value - other)
        e = _lift_idempotent(ctx, e)
        if e.is_zero():
            raise IdempotentSplitError("zero component")
        eigenvalues = _single_eigenvalues(ctx, e, certified)
        if eigenvalues is None:
            raise IdempotentSplitError("component not primitive")
        blocks.append((min(e.terms), e, tuple(eigenvalues[:ctx.n])))
    blocks.sort(key=lambda block: block[0])
    idempotents = [e for _, e, _ in blocks]
    _verify_idempotent_family(ctx, idempotents)
    return idempotents, [spectrum for _, _, spectrum in blocks], span


def _verify_idempotent_family(ctx, elements):
    total = ctx.zero()
    for i, e in enumerate(elements):
        if not (e * e == e):
            raise IdempotentSplitError("non-idempotent component")
        for j in range(i + 1, len(elements)):
            if not (e * elements[j]).is_zero():
                raise IdempotentSplitError("components are not orthogonal")
        if not is_central(ctx, e):
            raise IdempotentSplitError("component is not central")
        total = total + e
    if not (total == ctx.one()):
        raise IdempotentSplitError("components do not sum to the identity")


# ---------------------------------------------------------------------------
# block spectra
# ---------------------------------------------------------------------------

def min_poly_on_center_ideal(ctx, eps, z):
    """Monic minimal polynomial (ascending K coefficients) of the central
    element z acting on the ideal eps * Z.

    The power z^k eps enters one RowSpace with a 1 in the extra column
    dim + k, which records the combination of powers each row stands for.
    The first power that depends on the earlier ones reduces to a residual
    supported only on the extra columns: the relation among the powers with
    coefficient 1 at z^k, which is the minimal polynomial."""
    d = ctx.domain
    span = RowSpace(d, 2 * ctx.dim + 1)
    power = eps
    k = 0
    while True:
        residual = span.reduce({**power.terms, ctx.dim + k: d.one})
        if min(residual) >= ctx.dim:
            return [residual.get(ctx.dim + j, d.zero) for j in range(k + 1)]
        span.add(residual)
        power = z * power
        k += 1


def unique_eigenvalue(ctx, mu):
    """The unique root v with mu = (x - v)^deg, or None if mu is not of that
    shape; no root finding needed (v is read off the subleading
    coefficient)."""
    d = ctx.domain
    k = len(mu) - 1
    if k == 0:
        return None
    v = -mu[k - 1] * d.inv(d.from_int(k))
    # verify (x - v)^k == mu exactly, by the binomial theorem
    for i, c in enumerate(mu):
        if not d.is_zero(d.from_int(comb(k, i)) * (-v) ** (k - i) - c):
            return None
    return v

"""Center, Jucys-Murphy center, characters, cocenter and block idempotents.

The character map sends a central element acting on the cell module indexed
by a multipartition to its scalar; for a symmetric polynomial in the
Jucys-Murphy elements that scalar is the polynomial evaluated on the
specialized content-eigenvalue multiset of the multipartition, so everything
here is computable from combinatorics plus exact linear algebra.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .combinatorics import enumerate_multipartitions, jm_eigenvalues
from .hecke import AlgebraElement
from .linalg import RowSpace, kernel_basis, rank, solve_many, transpose
from .rings import NotInvertibleError, elementary_symmetric


class SingularGramError(Exception):
    """The trace Gram matrix between center and cocenter is singular at the
    given specialization."""


class IdempotentSplitError(Exception):
    """The components read off the Jucys-Murphy spectra are not a family of
    primitive central idempotents: the Jucys-Murphy center is not the
    center, a component is zero or not primitive, or the family is not
    idempotent, orthogonal, central and complete."""


# ---------------------------------------------------------------------------
# center of the algebra
# ---------------------------------------------------------------------------

def commutator_operators(ctx):
    """For each generator g of T_1..T_{n-1}, L_1, the sparse columns of
    ad_g: b -> g b - b g. Left multiplication is the cached generator
    matrix, right multiplication the column recurrence the build certifies
    (right_multiplication_matrix). At r = 1 the certified cyclotomic
    relation makes L_1 the scalar Q_1, so ad L_1 is zero and is left out.
    The common kernel of the ad_g is the center; the span of their columns
    is [H, H]."""
    gens = [(("T", i), ctx.T(i + 1)) for i in range(ctx.n - 1)]
    if ctx.r > 1:
        gens.append((("L", 1), ctx.jm_element(1)))
    minus_one = -ctx.domain.one
    ops = []
    for key, g in gens:
        ops.append([dict(col) for col in ctx._matrices[key]])
        for col, right_col in zip(ops[-1],
                                  ctx.right_multiplication_matrix(g)):
            ctx.domain.add_scaled(col, right_col, minus_one)
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
    generators: list
    in_center: bool | None


def jm_center_span(ctx, center=None):
    """Span monomials in the elementary symmetric functions of the JM
    elements (and the inverse of the top one) until the span stabilizes.

    Each candidate is one operator application, e_k x or e_n^{-1} x, to an
    earlier monomial x; the monomials commute pairwise, so this is x e_k.
    So every span element is a product of generators, and a property closed
    under products holds on the span once it holds on them. Only elements
    that raised the rank are queued, at most dim of them, so the loop
    ends. center, the RowSpace of the center, gives the inclusion
    certificate JM <= Z (in_center) and, when it holds, an exact early
    stop: the loop ends as soon as the span has the center's rank."""
    n = ctx.n
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
    queue = deque([(one, zero_desc)])  # breadth first
    while queue and span.rank != target:
        element, desc = queue.popleft()
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
                queue.append((candidate, new_desc))
                if span.rank == target:
                    break
    return JMCenterSpan(span.rank, elements, descriptors, generators,
                        in_center)


def center_and_jm_span(ctx):
    """The center as one RowSpace of its basis, and the JM-center span
    stopped early against it, which carries the inclusion certificate."""
    center = RowSpace(ctx.domain, ctx.dim)
    for z in center_basis(ctx):
        center.add(z.terms)
    return center, jm_center_span(ctx, center)


def center_and_jm_rank(ctx):
    """The center RowSpace, rank JM and whether e_1..e_n, e_n^{-1} lie in
    the center, with no span where the cell modules decide the rank. Each
    row of specialized_elementary_characters is an algebra map JM -> K,
    and distinct ones are linearly independent (Dedekind), so rank JM is
    at least the number of distinct rows; with the generators in Z it is
    at most dim Z. When the two meet, rank JM = dim Z. Otherwise the rank
    and inclusion are jm_center_span's."""
    center = RowSpace(ctx.domain, ctx.dim)
    for z in center_basis(ctx):
        center.add(z.terms)
    generators = [ctx.symmetric_jm(k) for k in range(1, ctx.n + 1)]
    generators.append(ctx.symmetric_jm_inverse())
    _, rows = specialized_elementary_characters(ctx)
    if (len(set(map(tuple, rows))) == center.rank
            and all(center.contains(g.terms) for g in generators)):
        return center, center.rank, True
    span = jm_center_span(ctx, center)
    return center, span.rank, span.in_center


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def specialized_elementary_characters(ctx):
    """For each multipartition, the specialized scalars of e_1..e_n on its
    cell module: elementary symmetric functions of the specialized JM
    eigenvalues, in canonical form. Returns (multipartitions, rows of n
    domain values). Only the parameters n, r, domain, q_val and Q_vals of
    ctx are read, so any object carrying them will do."""
    d, q = ctx.domain, ctx.q_val
    mps = enumerate_multipartitions(ctx.n, ctx.r)
    rows = []
    for mp in mps:
        alphas = [(q ** a if a >= 0 else d.inv(q) ** -a) * ctx.Q_vals[c - 1]
                  for a, c in jm_eigenvalues(mp, ctx.r)]
        rows.append([d.canonical(x)
                     for x in elementary_symmetric(alphas, d.one)[1:]])
    return mps, rows


def descriptor_characters(ctx, rows, descriptors):
    """Character matrix of JM-center monomial descriptors from rows, the
    table of specialized_elementary_characters: one row per multipartition,
    one column per descriptor."""
    d = ctx.domain
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


def cocenter_matrices(ctx, coords):
    """C_1..C_n and C_inv, the matrices of e_1..e_n and e_n^{-1} on
    H / [H, H] in the coordinates of the complement words b_j, as sparse
    columns: column j of C_g is the residual of g b_j against [H, H],
    indexed by position in the complement, where it lies."""
    position = {w: k for k, w in enumerate(coords.complement)}
    mats = [[] for _ in range(ctx.n + 1)]
    for word in coords.complement:
        b = {word: ctx.domain.one}
        images = ctx.apply_symmetric_jm(b)
        images.append(ctx.apply_symmetric_jm_inverse(b))
        for cols, image in zip(mats, images):
            cols.append({position[w]: x
                         for w, x in coords.span.reduce(image).items()})
    return mats


def trace_gram_matrix(ctx, span, coords, mats):
    """Gram matrix tau(z_i b_j) between the JM-center basis and the
    cocenter complement words, as sparse rows {position in the complement:
    entry}, replayed on the C_g of mats: the row of 1 is tau(b_j), 1 at
    word 0 only, and that of z g is that of z times C_g, as tau(z g b_j) =
    sum_l C_g[l][j] tau(z b_l) for z central when tau vanishes on [H, H].
    SingularGramError if word 0 is not in the complement, or if singular."""
    if coords.complement[:1] != [0]:  # the complement is ascending
        raise SingularGramError("the trace does not vanish on [H, H]")
    d = ctx.domain
    row_mats = [transpose(cols, coords.dim) for cols in mats]
    gram = []
    for desc in span.descriptors:
        row = {0: d.one}
        for rows, power in zip(row_mats, desc):
            for _ in range(power):
                row = d.apply_cols(rows, row)
        gram.append(row)
    if not gram or len(gram) != coords.dim:
        raise SingularGramError("center and cocenter coordinates differ")
    if rank(gram, ctx.domain) != len(gram):
        raise SingularGramError("trace Gram matrix is singular")
    return gram


def character_duals(ctx, rows, xs, span, coords, gram):
    """For each vector x in xs, the unique cocenter class D with tau(z D) =
    sum over multipartitions of char(z) x, for all z in the JM-center basis:
    the adjoint of the character map under the trace pairing, char read off
    rows (specialized_elementary_characters). One elimination of the Gram
    matrix with a right-hand side per vector. Raises SingularGramError at
    non-generic parameters."""
    mps = enumerate_multipartitions(ctx.n, ctx.r)
    if span.rank != len(mps) or coords.dim != len(mps):
        raise SingularGramError(
            "center/cocenter dimensions do not match the fixed points")
    char_matrix = descriptor_characters(ctx, rows, span.descriptors)
    d = ctx.domain
    rhss = []
    for x in xs:  # rhs_i = sum over lam of char_lam(z_i) x_lam
        rhs = [d.zero] * len(span.elements)
        for chars, c in zip(char_matrix, x):
            if not d.is_zero(c):
                rhs = [acc + v * c for acc, v in zip(rhs, chars)]
        rhss.append(rhs)
    try:
        sols = solve_many(gram, rhss, d, coords.dim)
    except NotInvertibleError as exc:
        raise SingularGramError(str(exc)) from exc
    return [{coords.complement[k]: c for k, c in sol.items()} for sol in sols]


# ---------------------------------------------------------------------------
# block idempotents
# ---------------------------------------------------------------------------

def root_multiplicity(d, poly, v):
    """The multiplicity of v as a root of the nonzero poly (ascending
    coefficients), by repeated synthetic division by x - v."""
    m = 0
    while len(poly) > 1:
        quotient = [poly[-1]]
        for c in reversed(poly[:-1]):
            quotient.append(c + v * quotient[-1])
        if not d.is_zero(quotient.pop()):
            break
        poly = quotient[::-1]
        m += 1
    return m


def _poly_mul_mod(d, a, b, mu):
    """a * b reduced modulo the monic mu; ascending coefficients."""
    out = [d.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    deg = len(mu) - 1
    while len(out) > deg:
        c = out.pop()
        for j in range(deg):
            out[len(out) - deg + j] = out[len(out) - deg + j] - c * mu[j]
    return out


def _eigenspace_projector(d, mu, values, s):
    """p mod mu, where p(z) eps is the component of eps in the generalized
    s-eigenspace of z on eps Z, mu the minimal polynomial of z there and
    values the distinct eigenvalues z may have: p = 1 - (1 - g/g(s))^m for
    mu = (x - s)^m g, so p = 0 mod g and p = 1 mod (x - s)^m. Refused
    unless the multiplicities of the values add up to deg mu."""
    mults = [root_multiplicity(d, mu, v) for v in values]
    if sum(mults) != len(mu) - 1:
        raise IdempotentSplitError("component not primitive")
    g, g_s = [d.one], d.one
    for v, m_v in zip(values, mults):
        for _ in range(m_v if v != s else 0):
            g = _poly_mul_mod(d, g, [-v, d.one], mu)
            g_s = g_s * (s - v)
    w = [-c * d.inv(g_s) for c in g]  # 1 - g / g(s)
    w[0] = w[0] + d.one
    power = [d.one]
    for _ in range(mults[values.index(s)]):
        power = _poly_mul_mod(d, power, w, mu)
    p = [-c for c in power]
    p[0] = p[0] + d.one
    return p


def multiplication_matrices(ctx, span):
    """The matrices M_1..M_n of multiplication by e_1..e_n on the span
    basis z_1..z_m, as sparse columns: column j of M_k holds the coordinates
    of e_k z_j, from one apply_symmetric_jm sweep on z_j. The images are
    reduced against one RowSpace of the z_j, each with a 1 in its own extra
    column dim + j, so an image in the span leaves minus its coordinates on
    the extra columns; a residual on a PBW word is refused."""
    d, dim = ctx.domain, ctx.dim
    basis = RowSpace(d, dim + span.rank)
    for j, z in enumerate(span.elements):
        basis.add({**z.terms, dim + j: d.one})
    mats = [[] for _ in range(ctx.n)]
    for z in span.elements:
        for cols, image in zip(mats, ctx.apply_symmetric_jm(z.terms)):
            residual = basis.reduce(image)
            if residual and min(residual) < dim:
                raise IdempotentSplitError("the span is not closed")
            cols.append({c - dim: -x for c, x in residual.items()})
    return mats


def min_poly_on_center_ideal(d, cols, vec, m):
    """Monic minimal polynomial (ascending coefficients) of the m x m
    matrix with sparse columns cols on the vector vec: for M_k on the
    coordinates of eps, that of e_k on the ideal eps Z, which eps generates.

    The power M^k vec enters one RowSpace with a 1 in the extra column
    m + k, which records the combination of powers each row stands for. The
    first power that depends on the earlier ones leaves a residual on the
    extra columns only: the relation with coefficient 1 at M^k."""
    span = RowSpace(d, 2 * m + 1)
    power = vec
    k = 0
    while True:
        residual = span.reduce({**power, m + k: d.one})
        if min(residual) >= m:
            return [residual.get(m + j, d.zero) for j in range(k + 1)]
        span.add(residual)
        power = d.apply_cols(cols, power)
        k += 1


def _poly_apply(d, cols, p, vec):
    """p(M) vec by Horner's rule, M the matrix with sparse columns cols."""
    out = {}
    d.add_scaled(out, vec, p[-1])
    for c in reversed(p[:-1]):
        out = d.apply_cols(cols, out)
        d.add_scaled(out, vec, c)
    return out


def central_idempotents(ctx, classes):
    """The complete set of primitive central idempotents of a specialized
    algebra, split along classes, the distinct rows of scalars of e_1..e_n
    on the cell modules (tuples of ctx.domain values), as (idempotents,
    spectra, image_dims): spectra[i] is the row that built idempotents[i],
    the eigenvalues of e_1..e_n on idempotents[i] Z, and image_dims[i] is
    the dimension of that ideal.

    The span must be the center, so that e_1..e_n and e_n^{-1} generate Z;
    the rest works in its coordinates, where the first span element is 1.
    For each row s, P, multiplication by eps, starts at the identity and,
    for k = 1..n, becomes p(M_k) P: eps = P 1 becomes its component in the
    generalized s_k-eigenspace of e_k on eps Z. Then e_1..e_n, and so
    e_n^{-1}, have single eigenvalues on eps Z: eps is primitive over any
    extension of the field. The family must be idempotent, orthogonal and
    sum to one; it lies in Z, so it is central, and primitive central
    idempotents are unique. Any failure raises IdempotentSplitError, as at
    q = 1. So wrong classes cannot pass: a missing row fails the sum or
    the root count (component not primitive), a repeated row fails
    orthogonality, and a row no cell module has gives a zero component.
    """
    center, span = center_and_jm_span(ctx)
    if not (span.in_center and span.rank == center.rank):
        raise IdempotentSplitError("the Jucys-Murphy center is not the center")
    d, m = ctx.domain, span.rank
    mats = multiplication_matrices(ctx, span)
    basis = [z.terms for z in span.elements]
    columns = [list(dict.fromkeys(column)) for column in zip(*classes)]
    blocks = []
    for s in classes:
        P = [{j: d.one} for j in range(m)]
        for M, values, s_k in zip(mats, columns, s):
            mu = min_poly_on_center_ideal(d, M, P[0], m)
            p = _eigenspace_projector(d, mu, values, s_k)
            P = [_poly_apply(d, M, p, col) for col in P]
            if not P[0]:
                raise IdempotentSplitError("zero component")
        eps = d.apply_cols(basis, P[0])  # sum_j (P 1)_j z_j
        blocks.append((min(eps), AlgebraElement(ctx, eps), s, P))
    blocks.sort(key=lambda block: block[0])
    total = {}
    for i, (_, _, _, P) in enumerate(blocks):
        if d.apply_cols(P, P[0]) != P[0]:
            raise IdempotentSplitError("non-idempotent component")
        if any(d.apply_cols(P, later[3][0]) for later in blocks[i + 1:]):
            raise IdempotentSplitError("components are not orthogonal")
        d.add_scaled(total, P[0])
    if total != {0: d.one}:
        raise IdempotentSplitError("components do not sum to the identity")
    _, idempotents, spectra, products = zip(*blocks)
    return list(idempotents), list(spectra), [rank(P, d) for P in products]

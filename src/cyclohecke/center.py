"""Center, Jucys-Murphy center, characters, cocenter and block idempotents.

The character map sends a central element acting on the cell module indexed
by a multipartition to its scalar; for symmetric Laurent polynomials in the
Jucys-Murphy elements that scalar is the polynomial evaluated on the
content-eigenvalue multiset of the multipartition, so everything here is
computable from combinatorics plus exact linear algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .combinatorics import enumerate_multipartitions, jm_eigenvalues
from .linalg import RowSpace, coordinates_in, kernel_basis, rank, solve_linear
from .rings import (
    CyclotomicDomain,
    CyclotomicNumber,
    LaurentPoly,
    NotInvertibleError,
    RationalDomain,
    UnsupportedDomainError,
    _poly_divmod,
    _poly_mul,
    _poly_trim,
    elementary_symmetric,
    euler_phi,
    specialize,
)


class SingularGramError(Exception):
    """The trace Gram matrix between center and cocenter is singular at the
    given specialization."""


class IdempotentSplitError(Exception):
    """Block splitting made no progress within the trial budget."""


# ---------------------------------------------------------------------------
# center of the algebra
# ---------------------------------------------------------------------------

def _commutation_constraints(ctx):
    """Rows of the stacked (left - right) multiplication matrices for the
    generators T_1..T_{n-1}, L_1; the kernel is the center."""
    d = ctx.domain
    rows = []
    mats = []
    for i in range(1, ctx.n):
        mats.append((ctx._matrices[("T", i - 1)], ctx.right_T_matrix(i)))
    mats.append((ctx._matrices[("L", 1)],
                 ctx.right_multiplication_matrix(ctx.jm_element(1))))
    for left_cols, right_cols in mats:
        for i in range(ctx.dim):
            row = [d.zero] * ctx.dim
            touched = False
            for j in range(ctx.dim):
                val = left_cols[j].get(i, d.zero) - right_cols[j].get(i, d.zero)
                if not d.is_zero(val):
                    row[j] = val
                    touched = True
            if touched:
                rows.append(row)
    return rows


def center_basis(ctx):
    """Exact basis of the center {z : z T_i = T_i z, z L_1 = L_1 z} via the
    kernel of the stacked commutator constraints.

    The kernel needs a field domain: over the symbolic Laurent ring this
    raises UnsupportedDomainError unless there are no constraints at all;
    use sampled rational specializations instead.
    """
    rows = _commutation_constraints(ctx)
    if not rows:
        return [ctx.basis_element(i) for i in range(ctx.dim)]
    vectors = kernel_basis(rows, ctx.domain)
    return [ctx.from_vector(v) for v in vectors]


# ---------------------------------------------------------------------------
# Jucys-Murphy center
# ---------------------------------------------------------------------------

@dataclass
class JMCenterSpan:
    """Stabilized linear span of monomials in e_1..e_n and e_n^{-1}.

    Each basis element carries its monomial descriptor: exponents
    (d_1..d_n, d_inv) meaning prod_k e_k^{d_k} * (e_n^{-1})^{d_inv}, which is
    what makes exact character evaluation cheap.
    """

    rank: int
    elements: list
    descriptors: list
    capped: bool


def jm_center_span(ctx):
    """Span monomials in the elementary symmetric functions of the JM
    elements (and the inverse of the top one) until the span stabilizes,
    or mark the span capped after n*r + n + 10 rounds."""
    n = ctx.n
    max_rounds = n * ctx.r + n + 10
    gens = [(ctx.symmetric_jm(k), k - 1) for k in range(1, n + 1)]
    gens.append((ctx.symmetric_jm_inverse(), n))
    span = RowSpace(ctx.domain, ctx.dim)
    one = ctx.one()
    zero_desc = (0,) * (n + 1)
    span.add(one.to_vector())
    elements = [one]
    descriptors = [zero_desc]
    frontier = [(one, zero_desc)]
    capped = False
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > max_rounds:
            capped = True
            break
        new_frontier = []
        for element, desc in frontier:
            for gen, slot in gens:
                candidate = element * gen
                if span.add(candidate.to_vector()):
                    new_desc = tuple(
                        d + (1 if i == slot else 0)
                        for i, d in enumerate(desc))
                    elements.append(candidate)
                    descriptors.append(new_desc)
                    new_frontier.append((candidate, new_desc))
        frontier = new_frontier
    return JMCenterSpan(span.rank, elements, descriptors, capped)


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
        rows.append([
            elementary_symmetric(k, alphas, d.one)
            for k in range(1, ctx.n + 1)
        ])
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
    """[H, H] as the span of [b, g] over PBW basis words b and generators g
    (commutators are derivation-like in each argument, so this span is the
    whole commutator subspace)."""
    span = RowSpace(ctx.domain, ctx.dim)
    gens = ctx.generators()
    for j in range(ctx.dim):
        b = ctx.basis_element(j)
        for g in gens:
            span.add((b * g - g * b).to_vector())
    return CocenterCoordinates(span, span.non_pivot_columns())


def cocenter_dim(ctx):
    return commutator_coordinates(ctx).dim


def cocenter_project(coords, element):
    """Canonical representative of an element's cocenter class, supported on
    the complement words."""
    residual = coords.span.reduce(element.to_vector())
    return {j: residual[j] for j in coords.complement
            if not element.ctx.domain.is_zero(residual[j])}


def trace_gram_matrix(ctx, span, coords):
    """Gram matrix tau(z_i * b_j) between the JM-center basis and the
    cocenter complement words; SingularGramError when not invertible."""
    gram = [
        [(z * ctx.basis_element(j)).tau() for j in coords.complement]
        for z in span.elements
    ]
    if not gram or len(gram) != len(gram[0]):
        raise SingularGramError("center and cocenter coordinates differ")
    if rank(gram, ctx.domain) != len(gram):
        raise SingularGramError("trace Gram matrix is singular")
    return gram


def character_dual(ctx, x, span=None, coords=None, gram=None, chars=None):
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
    char_matrix = chars if chars is not None \
        else descriptor_characters(ctx, span.descriptors)
    d = ctx.domain
    rhs = []
    for i in range(len(span.elements)):
        acc = d.zero
        for lam in range(len(mps)):
            acc = acc + char_matrix[lam][i] * x[lam]
        rhs.append(acc)
    try:
        sol = solve_linear(gram, rhs, d)
    except NotInvertibleError as exc:
        raise SingularGramError(str(exc)) from exc
    return {j: c for j, c in zip(coords.complement, sol)
            if not d.is_zero(c)}


def cocenter_class_to_element(ctx, coords_map):
    d = ctx.domain
    vec = [d.zero] * ctx.dim
    for j, c in coords_map.items():
        vec[j] = c
    return ctx.from_vector(vec)


# ---------------------------------------------------------------------------
# block idempotents
# ---------------------------------------------------------------------------

@dataclass
class _CommutativeAlgebra:
    """A commutative algebra by structure constants over Fraction scalars
    (after restricting cyclotomic scalars to the rationals)."""

    dim: int
    table: list  # table[i][j] = coords of basis_i * basis_j
    identity: list

    def mult(self, u, v):
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                coeff = a * b
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] += coeff * t
        return out


class _RationalView:
    """Fraction coordinates for a center over Q or over a cyclotomic field
    (by restriction of scalars); converts back to domain coefficients."""

    def __init__(self, ctx, elements):
        self.ctx = ctx
        self.elements = elements
        d = ctx.domain
        if isinstance(d, RationalDomain):
            self.phi = 1
            self._powers = [d.one]
        elif isinstance(d, CyclotomicDomain):
            self.phi = euler_phi(d.order)
            self._powers = [d.zeta(0)]
            for _ in range(self.phi - 1):
                self._powers.append(self._powers[-1] * d.zeta(1))
        else:
            raise UnsupportedDomainError(
                "idempotent splitting needs a rational or cyclotomic domain")
        self.m = len(elements)
        self.dim = self.m * self.phi

    def domain_coeffs(self, rational_vec):
        """Fraction coordinates (i, t) -> K-coefficients on elements[i]."""
        d = self.ctx.domain
        out = []
        for i in range(self.m):
            acc = d.zero
            for t in range(self.phi):
                c = rational_vec[i * self.phi + t]
                if c:
                    acc = acc + self._powers[t] * d.from_fraction(c)
            out.append(acc)
        return out

    def rational_coords(self, k_coeffs):
        """Inverse of domain_coeffs."""
        out = []
        for c in k_coeffs:
            if isinstance(c, CyclotomicNumber):
                out.extend(c.coeffs)
            else:
                out.append(Fraction(c))
                out.extend([Fraction(0)] * (self.phi - 1))
        return out

    def element_from_rational(self, rational_vec):
        coeffs = self.domain_coeffs(rational_vec)
        total = self.ctx.zero()
        for c, z in zip(coeffs, self.elements):
            total = total + z * c
        return total


def _structure_constants(ctx, elements):
    """K-structure constants of the span of the given (closed) elements."""
    d = ctx.domain
    columns = [z.to_vector() for z in elements]
    table = []
    for zi in elements:
        row = []
        for zj in elements:
            row.append(coordinates_in(columns, (zi * zj).to_vector(), d))
        table.append(row)
    identity = coordinates_in(columns, ctx.one().to_vector(), d)
    return table, identity


def _expand_scalar(view, k_coeff, zeta_shift):
    """Fraction coordinates of zeta^shift * k_coeff over the power basis."""
    d = view.ctx.domain
    if isinstance(d, CyclotomicDomain):
        if not isinstance(k_coeff, CyclotomicNumber):
            k_coeff = d.from_fraction(k_coeff)
        value = d.zeta(zeta_shift) * k_coeff if zeta_shift else k_coeff
        return list(value.coeffs)
    return [Fraction(k_coeff)]


def _restrict_scalars(view, k_table, k_identity):
    """Blow a K-algebra multiplication table up to Fraction coordinates."""
    m, phi = view.m, view.phi
    dim = view.dim
    table = [[None] * dim for _ in range(dim)]
    for i in range(m):
        for t in range(phi):
            for j in range(m):
                for u in range(phi):
                    out = [Fraction(0)] * dim
                    for k in range(m):
                        coords = _expand_scalar(view, k_table[i][j][k], t + u)
                        for s, c in enumerate(coords):
                            if c:
                                out[k * phi + s] += c
                    table[i * phi + t][j * phi + u] = out
    identity = [Fraction(0)] * dim
    for k in range(m):
        coords = _expand_scalar(view, k_identity[k], 0)
        for s, c in enumerate(coords):
            identity[k * phi + s] = c
    return _CommutativeAlgebra(dim, table, identity)


def _rational_roots(coeffs):
    """All rational roots (with multiplicity factored off) of a monic
    Fraction polynomial, by the rational root theorem on the cleared form.
    Returns (roots with multiplicities, cofactor polynomial)."""
    poly = [Fraction(c) for c in coeffs]
    scale = 1
    for c in poly:
        scale = lcm(scale, c.denominator)
    ints = [int(c * scale) for c in poly]
    while ints and ints[-1] == 0:
        ints.pop()
    lead = abs(ints[-1])
    # strip factors of x
    mult_zero = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        mult_zero += 1
    const = abs(ints[0]) if ints else 0
    candidates = set()
    if mult_zero:
        candidates.add(Fraction(0))

    def divisors(k):
        out = []
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.append(d)
                out.append(k // d)
            d += 1
        return out

    if const:
        for p in divisors(const):
            for s in divisors(lead):
                if gcd(p, s) == 1:
                    candidates.add(Fraction(p, s))
                    candidates.add(Fraction(-p, s))
    roots = []
    remaining = [Fraction(c) for c in coeffs]
    for cand in sorted(candidates):
        mult = 0
        while True:
            quot, rem = _poly_divmod(remaining, [-cand, Fraction(1)])
            if _poly_trim(rem):
                break
            remaining = quot
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, remaining


def _ideal_basis(A, e):
    """Echelonized Fraction basis of the ideal e * A (raw vectors kept)."""
    domain = RationalDomain()
    span = RowSpace(domain, A.dim)
    basis = []
    for j in range(A.dim):
        unit = [Fraction(0)] * A.dim
        unit[j] = Fraction(1)
        v = A.mult(e, unit)
        if span.add(v):
            basis.append(v)
    return basis


def _min_poly_in_ideal(A, e, z):
    """Monic minimal polynomial (ascending Fraction coefficients) of z as an
    element of the unital algebra (e * A, identity e); equals the minimal
    polynomial of multiplication-by-z on the ideal."""
    domain = RationalDomain()
    span = RowSpace(domain, A.dim)
    powers = [e]
    span.add(e)
    current = e
    while True:
        current = A.mult(z, current)
        if not span.add(current):
            combo = coordinates_in(powers, current, domain)
            return [-c for c in combo] + [Fraction(1)]
        powers.append(current)


def _eval_poly_at(A, e, z, coeffs):
    """coeffs(z) inside (e * A, identity e), ascending coefficients."""
    out = [Fraction(0)] * A.dim
    power = e
    for k, c in enumerate(coeffs):
        if c:
            for i, x in enumerate(power):
                if x:
                    out[i] += c * x
        if k + 1 < len(coeffs):
            power = A.mult(z, power)
    return out


# random combinations of the ideal basis tried after the basis vectors
_SPLIT_TRIALS = 24


def _try_split(A, e, ideal, rng):
    """Split e along kernels of coprime factors of the minimal polynomial of
    a candidate element; None when no candidate produced a split."""
    domain = RationalDomain()
    candidates = list(ideal)
    for _ in range(_SPLIT_TRIALS):
        combo = [Fraction(0)] * A.dim
        for vec in ideal:
            c = rng.randint(-3, 3)
            if c:
                for i, x in enumerate(vec):
                    if x:
                        combo[i] += c * x
        candidates.append(combo)
    for z in candidates:
        mu = _min_poly_in_ideal(A, e, z)
        roots, cofactor = _rational_roots(mu)
        factors = []
        for v, mult in roots:
            f = [Fraction(1)]
            for _ in range(mult):
                f = _poly_mul(f, [-v, Fraction(1)])
            factors.append(f)
        if len(cofactor) > 1:
            factors.append([Fraction(c) for c in cofactor])
        if len(factors) < 2:
            continue
        # kernels of the factor evaluations partition the ideal (CRT)
        blocks = []
        for f in factors:
            fz = _eval_poly_at(A, e, z, f)
            cols = [coordinates_in(ideal, A.mult(fz, b), domain)
                    for b in ideal]
            matrix = [[cols[j][i] for j in range(len(ideal))]
                      for i in range(len(ideal))]
            kern = kernel_basis(matrix, domain)
            block = []
            for kv in kern:
                vec = [Fraction(0)] * A.dim
                for c, bvec in zip(kv, ideal):
                    if c:
                        for i, x in enumerate(bvec):
                            if x:
                                vec[i] += c * x
                block.append(vec)
            blocks.append(block)
        if sum(len(b) for b in blocks) != len(ideal):
            continue
        all_vectors = [v for block in blocks for v in block]
        coords = coordinates_in(all_vectors, e, domain)
        pieces = []
        pos = 0
        for block in blocks:
            piece = [Fraction(0)] * A.dim
            for v in block:
                c = coords[pos]
                pos += 1
                if c:
                    for i, x in enumerate(v):
                        if x:
                            piece[i] += c * x
            pieces.append(piece)
        pieces = [p for p in pieces if any(p)]
        if len(pieces) < 2:
            continue
        # exact sanity: idempotent, orthogonal, summing to e
        ok = True
        total = [Fraction(0)] * A.dim
        for i, p in enumerate(pieces):
            if A.mult(p, p) != p:
                ok = False
                break
            for jj in range(i + 1, len(pieces)):
                if any(A.mult(p, pieces[jj])):
                    ok = False
                    break
            for k, x in enumerate(p):
                total[k] += x
            if not ok:
                break
        if ok and total == e:
            return pieces
    return None


def _certify_primitive(ctx, view, zbasis, e_rational):
    """True when the component's semisimple quotient over the coefficient
    field is one-dimensional (trace-form rank over K equals 1), which
    certifies the idempotent primitive over any extension field."""
    d = ctx.domain
    eps = view.element_from_rational(e_rational)
    span = RowSpace(d, ctx.dim)
    basis_elems = []
    cols = []
    for z in zbasis:
        u = eps * z
        v = u.to_vector()
        if span.add(v):
            basis_elems.append(u)
            cols.append(v)
    if len(basis_elems) == 1:
        return True

    def mult_matrix(u):
        return [coordinates_in(cols, (u * b).to_vector(), d)
                for b in basis_elems]

    m = len(basis_elems)
    gram = []
    for a in range(m):
        row = []
        for b in range(m):
            cols_ab = mult_matrix(basis_elems[a] * basis_elems[b])
            tr = d.zero
            for j in range(m):
                tr = tr + cols_ab[j][j]
            row.append(tr)
        gram.append(row)
    return rank(gram, d) == 1


def central_idempotents(ctx, *, seed=0):
    """The complete set of primitive central idempotents of a specialized
    algebra, computed inside the commutative center by repeatedly splitting
    along kernels of (z - eigenvalue) factors of minimal polynomials of
    center elements.

    Eigenvalues are extracted over the rationals (after restricting
    cyclotomic scalars, which leaves the idempotent set unchanged); a
    component that resists splitting is accepted only when its semisimple
    quotient over the coefficient field is certified one-dimensional,
    otherwise an IdempotentSplitError asks for a retry with new randomness.
    """
    zbasis = center_basis(ctx)
    k_table, k_identity = _structure_constants(ctx, zbasis)
    view = _RationalView(ctx, zbasis)
    A = _restrict_scalars(view, k_table, k_identity)
    rng = random.Random(seed)
    finished = []
    work = [A.identity]
    while work:
        e = work.pop()
        ideal = _ideal_basis(A, e)
        if len(ideal) == 1:
            finished.append(e)
            continue
        pieces = _try_split(A, e, ideal, rng)
        if pieces is None:
            if _certify_primitive(ctx, view, zbasis, e):
                finished.append(e)
            else:
                raise IdempotentSplitError(
                    "no split found within the trial budget; retry with a "
                    "different seed (the component may involve a residue "
                    "field extension)")
        else:
            work.extend(pieces)
    elements = [view.element_from_rational(e) for e in finished]
    elements.sort(key=_first_support_index)
    _verify_idempotent_family(ctx, elements)
    return elements


def _first_support_index(element):
    return min(element.ctx.index[w] for w in element.terms)


def _verify_idempotent_family(ctx, elements):
    total = ctx.zero()
    for i, e in enumerate(elements):
        if not (e * e == e):
            raise IdempotentSplitError("non-idempotent component")
        for j in range(i + 1, len(elements)):
            if not (e * elements[j]).is_zero():
                raise IdempotentSplitError("components are not orthogonal")
        for g in ctx.generators():
            if not (e * g == g * e):
                raise IdempotentSplitError("component is not central")
        total = total + e
    if not (total == ctx.one()):
        raise IdempotentSplitError("components do not sum to the identity")


# ---------------------------------------------------------------------------
# block spectra
# ---------------------------------------------------------------------------

def min_poly_on_center_ideal(ctx, eps, z):
    """Monic minimal polynomial (ascending K coefficients) of the central
    element z acting on the ideal eps * Z."""
    d = ctx.domain
    span = RowSpace(d, ctx.dim)
    powers = [eps.to_vector()]
    span.add(powers[0])
    current = eps
    while True:
        current = z * current
        v = current.to_vector()
        if not span.add(v):
            combo = coordinates_in(powers, v, d)
            return [-c for c in combo] + [d.one]
        powers.append(v)


def unique_eigenvalue(ctx, mu):
    """The unique root v with mu = (x - v)^deg, or None if mu is not of that
    shape; no root finding needed (v is read off the subleading
    coefficient)."""
    d = ctx.domain
    k = len(mu) - 1
    if k == 0:
        return None
    v = -mu[k - 1] * d.inv(d.from_int(k))
    # verify (x - v)^k == mu exactly
    poly = [d.one]
    for _ in range(k):
        nxt = [d.zero] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        poly = nxt
    if len(poly) != len(mu):
        return None
    for a, b in zip(poly, mu):
        if not d.is_zero(a - b):
            return None
    return v

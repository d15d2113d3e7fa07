"""Named verification campaigns composing the other modules.

"Generic parameter" claims are certified at sampled random rational
specializations (Schwartz-Zippel style), never proclaimed proved; the
reports label them "generic (sampled)". The center suites, hilb's
r = 1, Q_1 = 1 case included, make one claim per point (_center_claim):
the JM center lies in the center and, at q != 1, both have dimension the
number of r-multipartitions of n; rank JM is read off the distinct cell
module characters where they number dim Z. The dimensions are certified
over a prime field first, at rational parameters and at roots of unity
alike, with the exact computation as the fallback (docs/reports.md).
Every suite is deterministic given its parameters and seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .combinatorics import (
    count_standard_tableaux,
    enumerate_multipartitions,
    render_multipartition,
)
from .center import (
    SingularGramError,
    center_and_jm_rank,
    center_and_jm_span,
    character_duals,
    cocenter_matrices,
    commutator_coordinates,
    jm_center_span,
    specialized_elementary_characters,
    trace_gram_matrix,
)
from .hecke import (
    AlgebraContext,
    AlgebraElement,
    all_permutations,
    perm_compose,
    right_mult_simple,
)
from .ktheory import verify_main_theorem
from .linalg import rank
from .reports import VerificationReport
from .rings import RationalDomain, reduce_parameters


def sample_specialization(n, rng, r):
    """Random rational (q, Q_1..Q_r) in the semisimple locus: entries from
    {2..97}, rejecting coincidences Q_i = q^m Q_j for |m| <= 2n."""
    while True:
        q = Fraction(rng.randint(2, 97))
        Qs = [Fraction(rng.randint(2, 97)) for _ in range(r)]
        powers = {q ** m for m in range(-2 * n, 2 * n + 1)}
        if not any(Qs[i] / Qs[j] in powers
                   for i in range(r) for j in range(r) if i != j):
            return q, Qs


def generic_specializations(n, r, seed, samples=3):
    """Independently sampled rational (q, [Q_1..Q_r]) for (n, r)."""
    rng = random.Random(seed)
    return [sample_specialization(n, rng, r) for _ in range(samples)]


def generic_contexts(n, r, seed, samples=3):
    """Exact contexts at generic_specializations(n, r, seed, samples)."""
    return [AlgebraContext(n, r, RationalDomain(), q, Qs)
            for q, Qs in generic_specializations(n, r, seed, samples)]


# ---------------------------------------------------------------------------
# main theorem
# ---------------------------------------------------------------------------

N_CAP, R_CAP = 8, 6


def main_theorem_coverage(budget=400):
    """All (n, r) with r^n * n! within the dimension budget, under the caps
    n <= N_CAP and r <= R_CAP (the budget alone leaves r unbounded for
    n <= 1)."""
    return [(n, r) for r in range(1, R_CAP + 1) for n in range(N_CAP + 1)
            if r ** n * math.factorial(n) <= budget]


def suite_main_theorem(budget=400):
    """The main identity (geometric vs algebraic restriction tables) over
    every (n, r) in the dimension budget."""
    return [verify_main_theorem(n, r)
            for n, r in main_theorem_coverage(budget)]


# ---------------------------------------------------------------------------
# center and Jucys-Murphy center
# ---------------------------------------------------------------------------

def _prime_field_certificate(n, r, q, Qs):
    """center_and_jm_rank of (n, r) at the exact parameters (q, Qs),
    rationals or elements of one cyclotomic field, reduced to a prime field
    by rings.reduce_parameters, when it certifies the exact dimensions: the
    JM generators lie in the center and rank JM is dim Z (see
    docs/reports.md). None when rings.reduce_parameters refuses
    the parameters or when the bounds miss. The context certifies its own
    product at build; a failure raises EngineError."""
    reduced = reduce_parameters(q, Qs)
    if reduced is None:
        return None
    domain, _, q_p, Qs_p = reduced
    found = center_and_jm_rank(AlgebraContext(n, r, domain, q_p, Qs_p))
    center, jm_rank, in_center = found
    return found if in_center and jm_rank == center.rank else None


def _center_claim(n, r, domain, q, Qs, label):
    """The center claim of (n, r) at (q, Qs) in domain: every generator of
    the JM-center span lies in the center and, at q != 1, dim Z = rank JM =
    the number of r-multipartitions of n (see docs/reports.md). Returns the
    result entry {"q": label, "dim_center", "dim_jm_center"} and the
    witnesses, none on a pass. The parameters are tried over a prime field
    first; the exact computation runs where that certificate is refused or
    misses."""
    found = _prime_field_certificate(n, r, q, Qs)
    center, jm_rank, in_center = found or center_and_jm_rank(
        AlgebraContext(n, r, domain, q, Qs))
    dims = {"dim_center": center.rank, "dim_jm_center": jm_rank}
    witnesses = []
    expected = len(enumerate_multipartitions(n, r))
    if q != domain.one and not center.rank == jm_rank == expected:
        witnesses.append({
            "reason": "dimensions differ from the number of multipartitions",
            "q": label, "expected": expected, **dims})
    if not in_center:
        witnesses.append({"reason": "a JM-center element is not in the center",
                          "q": label})
    return {"q": label, **dims}, witnesses


def suite_center(n, r, explicit=None, *, seed=0, samples=3):
    """The center claim (_center_claim) at explicit parameters
    explicit = (domain, q, [Q_1..Q_r]) or, when explicit is None, at
    sampled generic rational specializations."""
    start = time.perf_counter()
    if explicit is None:
        domain = RationalDomain()
        points = generic_specializations(n, r, seed, samples)
        label = "generic (sampled)"
    else:
        domain, *point = explicit
        points = [point]
        label = "explicit"
    results = []
    witnesses = []
    for q, Qs in points:
        result, found = _center_claim(n, r, domain, q, Qs, str(q))
        result["Q"] = [str(Q) for Q in Qs]
        # rank JM is a count of character rows or the rank of a span that
        # queues only elements that raise its rank: never capped
        result["jm_span_capped"] = False
        results.append(result)
        witnesses += found
    return VerificationReport(
        check="center_dimensions",
        params={"n": n, "r": r, "specialization": label,
                "results": results},
        witnesses=witnesses,
        seed=seed,
        duration=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Hilbert scheme corollary (r = 1)
# ---------------------------------------------------------------------------

def suite_hilb_fg06(n, points, *, seed=0):
    """The center claim at r = 1 and Q_1 = 1, at each (domain, q, label) in
    points: the center equals the Jucys-Murphy center, of dimension p(n),
    at every q != 1."""
    start = time.perf_counter()
    if any(q == domain.one for domain, q, _ in points):
        raise ValueError("the corollary needs q != 1")
    results = []
    witnesses = []
    for domain, q, label in points:
        result, found = _center_claim(n, 1, domain, q, [domain.one], label)
        results.append(result)
        witnesses += found
    return VerificationReport(
        check="hilb_center_equals_jm_center",
        params={"n": n, "r": 1, "Q1": "1", "results": results,
                "p_n": len(enumerate_multipartitions(n, 1))},
        witnesses=witnesses,
        seed=seed,
        duration=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# q = 1 degeneration: the smash product and the invariant gap
# ---------------------------------------------------------------------------

class SmashProduct:
    """The q = 1 degeneration: the symmetric group acting on the quotient
    P_Q = K[L_1..L_n] / (prod_i (L_k - Q_i) for all k), with monomial basis
    L^a w, exponents below r. Built directly from this presentation,
    independently of the Hecke engine."""

    def __init__(self, n, r, Q_vals):
        if len(Q_vals) != r:
            raise ValueError("need one parameter per level")
        self.n = n
        self.r = r
        self.Q_vals = [Fraction(Q) for Q in Q_vals]
        # minimal polynomial prod (x - Q_i) = x^r + sum poly[j] x^j
        poly = [Fraction(1)]
        for Q in self.Q_vals:
            nxt = [Fraction(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] += c
                nxt[i] -= c * Q
            poly = nxt
        self.reduction = [-c for c in poly[:r]]  # x^r = sum red[j] x^j
        self.exponents = list(itertools.product(range(r), repeat=n))
        self.exp_index = {e: i for i, e in enumerate(self.exponents)}
        self.perms = all_permutations(n)
        self.basis = [(e, w) for e in self.exponents for w in self.perms]

    def _reduce_monomial(self, exps):
        """Expand a monomial with exponents possibly >= r into the reduced
        basis; returns dict exponent-tuple -> Fraction."""
        out = {tuple(exps): Fraction(1)}
        while True:
            hot = None
            for e in out:
                if any(x >= self.r for x in e):
                    hot = e
                    break
            if hot is None:
                return out
            coeff = out.pop(hot)
            slot = next(i for i, x in enumerate(hot) if x >= self.r)
            for j, c in enumerate(self.reduction):
                if not c:
                    continue
                e = list(hot)
                e[slot] = e[slot] - self.r + j
                key = tuple(e)
                acc = out.get(key, Fraction(0)) + coeff * c
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)

    def multiply_words(self, x, y):
        """Product of two basis words (a, w) * (b, v) = L^(a + w.b) (w v)."""
        (a, w), (b, v) = x, y
        moved = [0] * self.n
        for k in range(self.n):
            moved[w[k]] = b[k]
        exps = [a_k + m_k for a_k, m_k in zip(a, moved)]
        perm = perm_compose(w, v)
        out = {}
        for e, c in self._reduce_monomial(exps).items():
            out[(e, perm)] = out.get((e, perm), Fraction(0)) + c
        return {k: c for k, c in out.items() if c}

    def generator_words(self):
        """The words of s_1..s_{n-1} and L_1, which generate the algebra."""
        identity = tuple(range(self.n))
        words = [((0,) * self.n, right_mult_simple(identity, i))
                 for i in range(self.n - 1)]
        return words + [((1,) + (0,) * (self.n - 1), identity)]

    def invariant_polynomial_dim(self):
        """Dimension of the symmetric-group invariants of P_Q: the monomial
        count minus the rank of the stacked (swap - identity) actions."""
        rows = []
        for i in range(self.n - 1):
            for col, exps in enumerate(self.exponents):
                swapped = list(exps)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                target = self.exp_index[tuple(swapped)]
                if target != col:
                    rows.append({col: Fraction(-1), target: Fraction(1)})
        return len(self.exponents) - rank(rows, RationalDomain())


def _smash_mismatch(smash, ctx):
    """The first generator word g and basis word y on which the smash
    product g y differs from the engine's generator matrix at q = 1, as a
    witness, or None. Agreement on the generators makes the products agree
    on every pair of words (see docs/reports.md)."""
    keys = [("T", i) for i in range(ctx.n - 1)] + [("L", 1)]
    for key, g in zip(keys, smash.generator_words()):
        for y, col in zip(ctx.basis, ctx._matrices[key]):
            if smash.multiply_words(g, y) != {
                    ctx.basis[k]: c for k, c in col.items()}:
                return {"reason": "engine at q = 1 differs from the smash "
                                  "product",
                        "left": str(g), "right": str(y)}
    return None


def suite_q1_gap(n, r, Q_vals=None, *, seed=0):
    """At q = 1 the invariant subalgebra of the smash product has dimension
    binom(n+r-1, n), strictly below the multipartition count once n, r >= 2;
    the engine's JM-center rank at q = 1 must reproduce the same number, and
    left multiplication by each generator on every basis word must agree
    between the smash product and the engine's generator matrices."""
    start = time.perf_counter()
    rng = random.Random(seed)
    if Q_vals is None:
        Q_vals = []
        while len(Q_vals) < r:
            c = Fraction(rng.randint(2, 97))
            if c not in Q_vals:
                Q_vals.append(c)
    Q_vals = [Fraction(Q) for Q in Q_vals]
    if len(set(Q_vals)) != r:
        raise ValueError("the q = 1 degeneration needs distinct parameters")
    witnesses = []
    smash = SmashProduct(n, r, Q_vals)
    invariant_dim = smash.invariant_polynomial_dim()
    expected = math.comb(n + r - 1, n)
    mp_count = len(enumerate_multipartitions(n, r))
    if invariant_dim != expected:
        witnesses.append({
            "reason": "invariant dimension != binom(n+r-1, n)",
            "invariant_dim": invariant_dim, "expected": expected,
        })
    if n >= 2 and r >= 2 and not invariant_dim < mp_count:
        witnesses.append({
            "reason": "no gap: invariant dimension not below the "
                      "multipartition count",
            "invariant_dim": invariant_dim, "multipartitions": mp_count,
        })
    domain = RationalDomain()
    ctx = AlgebraContext(n, r, domain, Fraction(1), Q_vals)
    jm_rank = jm_center_span(ctx).rank
    if jm_rank != invariant_dim:
        witnesses.append({
            "reason": "engine JM-center rank at q = 1 disagrees",
            "jm_rank": jm_rank, "invariant_dim": invariant_dim,
        })
    witness = _smash_mismatch(smash, ctx)
    if witness:
        witnesses.append(witness)
    return VerificationReport(
        check="q1_invariant_gap",
        params={
            "n": n, "r": r, "Q": [str(Q) for Q in Q_vals],
            "invariant_dim": invariant_dim,
            "binom": expected,
            "multipartitions": mp_count,
            "gap": invariant_dim < mp_count,
            "structure_compared": True,
        },
        witnesses=witnesses,
        seed=seed,
        duration=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# pairing / cocenter suite
# ---------------------------------------------------------------------------

def _module_map_witness(ctx, mps, span, coords, gram, mats):
    """The character dual D is linear, so it is a module map once
    a D_lam = sigma_lam(a) D_lam in the cocenter for every multipartition
    lam, D_lam = D(e_lam), and every a in the JM center. A central a maps
    [H, H] into itself and sigma_lam is multiplicative, so the identity
    passes from a and b to ab: checking the central generators e_1..e_n,
    e_n^{-1} covers every monomial of the span. g D_lam is C_g D_lam on
    the complement coordinates, C_g in mats. Returns the first failure as
    a witness, or None."""
    d = ctx.domain
    _, rows = specialized_elementary_characters(ctx)
    position = {w: k for k, w in enumerate(coords.complement)}
    units = [[d.one if k == lam else d.zero for k in range(len(mps))]
             for lam in range(len(mps))]
    duals = character_duals(ctx, rows, units, span, coords, gram)
    for mp, values, dual in zip(mps, rows, duals):
        dual = {position[w]: c for w, c in dual.items()}
        sigmas = values + [d.inv(values[-1])]
        for g, cols, sigma in zip(span.generators, mats, sigmas):
            if d.apply_cols(cols, dual) != d.nonzero(d.scale(dual, sigma)):
                return {"reason": "character dual is not a module map",
                        "multipartition": render_multipartition(mp),
                        "a": g.render()}
    return None


def suite_pairing(n, r, *, seed=0, samples=1):
    """Trace symmetry, adjointness for central elements, the character-dual
    module property, the cocenter dimension and the invertibility of the
    trace Gram matrix, each certified exactly at sampled generic rational
    specializations (see docs/reports.md)."""
    start = time.perf_counter()
    witnesses = []
    gram_skipped = None
    mps = enumerate_multipartitions(n, r)
    mp_count = len(mps)
    sampled = []
    for ctx in generic_contexts(n, r, seed, samples):
        sampled.append({"q": str(ctx.q_val),
                        "Q": [str(Q) for Q in ctx.Q_vals]})
        coords = commutator_coordinates(ctx)
        # tau reads word 0 and the echelon rows span [H, H]: tau vanishes on
        # [H, H] exactly when no row has its pivot at word 0
        if 0 not in coords.complement:
            witnesses.append({
                "reason": "trace symmetry failed",
                "commutator": AlgebraElement(
                    ctx, coords.span.rows[0]).render(),
            })
            continue
        if coords.dim != mp_count:
            witnesses.append({
                "reason": "cocenter dimension != multipartition count",
                "cocenter_dim": coords.dim, "expected": mp_count,
            })
            continue
        center, span = center_and_jm_span(ctx)
        # tau(ab c) = tau(b ca) = tau(b ac) for central a, by associativity
        # (certified at build) and trace symmetry; every span element is a
        # product of the generators, so it is central when they lie in Z
        outside = [g for g in span.generators if not center.contains(g.terms)]
        if outside:
            witnesses.append({
                "reason": "JM-center element is not central",
                "a": outside[0].render(),
            })
            continue
        if span.rank != mp_count:
            witnesses.append({
                "reason": "JM-center rank != multipartition count",
                "rank": span.rank, "expected": mp_count,
            })
            continue
        mats = cocenter_matrices(ctx, coords)
        try:
            gram = trace_gram_matrix(ctx, span, coords, mats)
        except SingularGramError as exc:
            # non-generic sample: the dual-map checks cannot run there
            gram_skipped = str(exc)
            continue
        witness = _module_map_witness(ctx, mps, span, coords, gram, mats)
        if witness:
            witnesses.append(witness)
    return VerificationReport(
        check="pairing_cocenter",
        params={
            "n": n, "r": r,
            "specialization": "generic (sampled)",
            "samples": sampled,
            "cocenter_dim_expected": mp_count,
            "gram_skipped": gram_skipped,
        },
        witnesses=witnesses,
        seed=seed,
        duration=time.perf_counter() - start,
        skipped=gram_skipped is not None,
    )


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------

def pbw_dimension_report(n, r):
    """PBW basis size r^n n! against the standard-tableaux square sum;
    basis_size is null, as no context is built."""
    start = time.perf_counter()
    expected = r ** n * math.factorial(n)
    syt_sum = sum(
        count_standard_tableaux(mp) ** 2
        for mp in enumerate_multipartitions(n, r))
    witnesses = []
    if syt_sum != expected:
        witnesses.append({
            "reason": "sum of squared tableau counts mismatch",
            "syt_sum": syt_sum, "expected": expected,
        })
    return VerificationReport(
        check="pbw_dimension",
        params={"n": n, "r": r, "expected": expected,
                "syt_square_sum": syt_sum, "basis_size": None},
        witnesses=witnesses,
        duration=time.perf_counter() - start,
    )

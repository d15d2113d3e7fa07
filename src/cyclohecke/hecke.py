"""The cyclotomic Hecke algebra engine.

Elements live in the PBW basis {L_1^a_1 ... L_n^a_n T_w : 0 <= a_i <= r-1,
w in S_n}, as sparse dicts {basis index: nonzero coefficient}, the one
vector format of the package; index 0 is the identity word.
A context stores the left-multiplication matrices of the generators
T_1..T_{n-1} and T_0 = L_1 only; _apply_L applies the higher Jucys-Murphy
elements from their definition. _column_steps is the one place where a
PBW word becomes generator applications: right_multiplication_matrix
walks it for every word and multiply for the words of its left factor,
and check_relations certifies it. No command multiplies two elements; the
central elements e_k(L_1..L_n) and e_n^{-1} act on vectors through the
generator maps (apply_symmetric_jm, apply_symmetric_jm_inverse).

The only nontrivial rewriting rule is the straightening identity

    T_i L_i^a L_{i+1}^b = L_i^b L_{i+1}^a T_i
        + (q-1) sgn(b-a) sum_{k=min(a,b)}^{max(a,b)-1} L_i^k L_{i+1}^{a+b-k}

from whose closed form the T matrices are built. Every exponent a context
uses is validated first against an independent one-step rewriter that only
knows the two degree-1 exchange rules. Each context then certifies its
generator matrices and the column recurrence at build time with
check_relations, first on the Ariki-Koike presentation with T_0 = L_1,
L_1 L_2 = L_2 L_1 stated as T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0, then by
reconstruction. Each relation runs only on the roots of a set of its
generators, from which single-entry columns A e_b = c e_b' (c != 0,
b' != b) of the set reach every basis word; the relation's kernel is
stable under the set. First the quadratic relation of T_i and the
cyclotomic one, on the roots of T_i and of L_1 (f(A) commutes with A).
Then, by T_i^2 = (q-1) T_i + q, the difference C of another relation has
C T_i = (q - 1 - A) C, A = T_i for a commutation and the other T for a
braid: T_i T_j = T_j T_i and the braids run on the roots of their pair,
the commutations with L_1 on the roots of T_i (T_1 for T_0 T_1 T_0 T_1,
and also L_1 at r = 2, where the cyclotomic relation gives C T_0 =
(Q_1 + Q_2 - T_0) C), skipped at r = 1, where L_1 = Q_1. Per root a side
costs one matrix application per factor beyond its rightmost, whose
column is stored: a commutation 2, T_0 T_1 T_0 T_1 6, a braid 4, a
quadratic relation 1 (its right side is read off the stored column), the
cyclotomic relation r - 1.
_apply_L is certified only by the reconstruction and conjugation steps.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import cache, partial

from .rings import (LaurentDomain, LaurentPoly, NotInvertibleError,
                    elementary_symmetric)
from .linalg import solve_linear, transpose
from .reports import VerificationReport


class EngineError(Exception):
    """Internal inconsistency detected by the engine self-tests."""


# ---------------------------------------------------------------------------
# permutations (one-line tuples of 0-based images)
# ---------------------------------------------------------------------------

@cache
def all_permutations(n):
    return sorted(itertools.permutations(range(n)))


@cache
def perm_length(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_compose(u, v):
    """(u v)(i) = u(v(i)): apply v first, then u."""
    return tuple(u[v[i]] for i in range(len(v)))


def left_mult_simple(i, w):
    """s_i w: swap the values i and i+1 in the image list."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def right_mult_simple(w, i):
    """w s_i: swap positions i and i+1."""
    out = list(w)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


@cache
def reduced_word(w):
    """Simple-reflection indices i_1..i_k (0-based) with
    T_w = T_{i_1} ... T_{i_k}."""
    letters = []
    cur = w
    identity = tuple(range(len(w)))
    while cur != identity:
        for i in range(len(w) - 1):
            if cur[i] > cur[i + 1]:
                cur = right_mult_simple(cur, i)
                letters.append(i)
                break
    return tuple(reversed(letters))


# ---------------------------------------------------------------------------
# straightening: closed form and the independent one-step oracle
# ---------------------------------------------------------------------------

def straightening_closed_form(a, b):
    """Terms of T L^a M^b over the L-pair basis, as a dict
    (L_exp, M_exp, has_T) -> LaurentPoly in q."""
    one = LaurentPoly.const(1, 1)
    q = LaurentPoly.variable(0, 1)
    out = {(b, a, True): one}
    if a != b:
        sign = 1 if b > a else -1
        corr = (q - 1) * sign
        for k in range(min(a, b), max(a, b)):
            out[(k, a + b - k, False)] = corr
    return out


def _exchange(terms, shift, key, coeff):
    """One degree-1 exchange rule on top of the normal form terms: every
    term times L (shift (1, 0)) or M (shift (0, 1)), plus coeff at key."""
    out = {(la + shift[0], lb + shift[1], t): c
           for (la, lb, t), c in terms.items()}
    acc = out[key] + coeff if key in out else coeff
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc
    return out


def _one_step_rows(max_exp):
    """For a = 0..max_exp, the normal forms of T L^a M^b for b = 0..max_exp,
    using only the degree-1 exchange rules T L = M T - (q-1) M and
    T M = L T + (q-1) M: each form is one rule applied to the one before,
    so every exponent chain is built once."""
    qm1 = LaurentPoly.variable(0, 1) - 1
    row = [{(0, 0, True): LaurentPoly.const(1, 1)}]
    for b in range(1, max_exp + 1):  # T M^b = (L T + (q-1) M) M^{b-1}
        row.append(_exchange(row[-1], (1, 0), (0, b, False), qm1))
    minus_qm1 = -qm1
    for a in range(max_exp + 1):
        if a:  # T L^a M^b = (M T - (q-1) M) L^{a-1} M^b
            row = [_exchange(terms, (0, 1), (a - 1, b + 1, False), minus_qm1)
                   for b, terms in enumerate(row)]
        yield row


def one_step_T_push(a, b):
    """Normal form of T L^a M^b from the one-step rewriter: the
    independent oracle for the closed form above."""
    return list(_one_step_rows(max(a, b)))[a][b]


_STRAIGHTENING_VALIDATED_THROUGH = -1  # largest exponent validated so far


def validate_straightening(max_exp=4):
    """Compare the closed-form straightening against the one-step rewriter
    for all exponents up to max_exp, a outer and b inner; raises
    EngineError at the first mismatch. Each context calls it before
    building its T matrices, and a process validates each exponent once."""
    global _STRAIGHTENING_VALIDATED_THROUGH
    if max_exp <= _STRAIGHTENING_VALIDATED_THROUGH:
        return
    for a, row in enumerate(_one_step_rows(max_exp)):
        for b, expected in enumerate(row):
            if straightening_closed_form(a, b) != expected:
                raise EngineError(
                    f"straightening mismatch at exponents ({a}, {b})")
    _STRAIGHTENING_VALIDATED_THROUGH = max_exp


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------

class AlgebraElement:
    """Sparse vector {PBW basis index: nonzero coefficient}; index 0 is the
    identity word. Immutable by convention."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = ctx.domain.nonzero(terms)

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("algebra context mismatch")

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            terms = dict(self.terms)
            self.ctx.domain.add_scaled(terms, other.terms)
            return AlgebraElement(self.ctx, terms)
        return self + self.ctx.scalar(other) * self.ctx.one()

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.ctx, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return self + (-other)
        return self + (-self.ctx.scalar(other) * self.ctx.one())

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return self.ctx.multiply(self, other)
        scalar = self.ctx.scalar(other)
        return AlgebraElement(
            self.ctx, {w: c * scalar for w, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        return (self - other).is_zero()

    __hash__ = None

    def is_zero(self):
        return not self.terms

    def tau(self):
        """Symmetrizing trace: the coefficient of the identity basis word."""
        return self.terms.get(0, self.ctx.domain.zero)

    def render(self):
        if not self.terms:
            return "0"
        ctx = self.ctx
        pieces = []
        for k in sorted(self.terms):
            exps, perm = ctx.basis[k]
            factors = [f"L{i + 1}^{e}" if e != 1 else f"L{i + 1}"
                       for i, e in enumerate(exps) if e]
            if perm != ctx._identity_perm:
                factors.append(
                    "T[" + ",".join(str(x + 1) for x in perm) + "]")
            body = "*".join(factors) if factors else "1"
            pieces.append(f"({ctx.domain.render(self.terms[k])}) * {body}")
        return " + ".join(pieces)

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# the algebra context
# ---------------------------------------------------------------------------

class AlgebraContext:
    """A cyclotomic Hecke algebra with fixed (n, r), scalar domain and
    parameter images, carrying the left-multiplication matrices of the
    generators T_1..T_{n-1} and L_1.

    Immutable once built; all operations afterwards are read-only.
    """

    def __init__(self, n, r, domain, q_val, Q_vals, *, self_check=True):
        if n < 1 or r < 1:
            raise ValueError("need n >= 1 and r >= 1")
        if len(Q_vals) != r:
            raise ValueError("need one cyclotomic parameter per level")
        # T matrices (n > 1) use the exponents 0..r-1
        validate_straightening(max(4, r - 1) if n > 1 else 4)
        self.n = n
        self.r = r
        self.domain = domain
        self.q_val = q_val
        self.Q_vals = list(Q_vals)
        # parameters must be invertible
        self.q_inv = domain.inv(q_val)
        for Q in Q_vals:
            domain.inv(Q)

        self._identity_perm = tuple(range(n))
        self.basis = [
            (exps, w)
            for exps in itertools.product(range(r), repeat=n)
            for w in all_permutations(n)
        ]
        self.index = {word: i for i, word in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._steps = self._column_steps()

        # L_1^r = sum_j cyclo_red[j] L_1^j from prod_i (L_1 - Q_i) = 0; by
        # Vieta the coefficient of x^j in that product is (-1)^(r-j) e_{r-j}
        e = elementary_symmetric(Q_vals, domain.one)
        self.cyclo_red = [e[r - j] if (r - j) % 2 else -e[r - j]
                          for j in range(r)]

        self._sym_row = None
        self._sym_inverse = None
        self._straightening_cache = {}
        self._build_matrices()
        if self_check:
            report = check_relations(self)
            if not report.passed:
                raise EngineError(
                    f"context self-test failed: {report.witnesses[:3]}")

    # -- construction -----------------------------------------------------

    def _build_matrices(self):
        mats = {("T", i): self._build_T_matrix(i) for i in range(self.n - 1)}
        mats[("L", 1)] = self._build_L1_matrix()
        self._matrices = mats

    def _build_T_matrix(self, i):
        """Left multiplication by T_{i+1} (0-based simple index i) on every
        basis word: the straightening closed form for the exponents of
        L_{i+1} L_{i+2}, then the Hecke product rule on the permutation."""
        d = self.domain
        q = self.q_val
        qm1 = q - d.one
        cols = []
        for exps, w in self.basis:
            col = {}
            siw = left_mult_simple(i, w)
            if perm_length(siw) > perm_length(w):
                targets = [(siw, d.one)]
            else:
                targets = [(siw, q), (w, qm1)]
            for (a, b, has_T), c in self._straightening(exps[i], exps[i + 1]):
                e = exps[:i] + (a, b) + exps[i + 2:]
                if has_T:
                    for w2, t in targets:
                        self._accumulate(col, (e, w2), c * t)
                else:
                    self._accumulate(col, (e, w), c)
            cols.append(d.nonzero(col))
        return cols

    def _straightening(self, a, b):
        """straightening_closed_form(a, b) as (key, coefficient) pairs with
        the coefficients specialised to the domain, memoised per pair."""
        key = (a, b)
        if key not in self._straightening_cache:
            self._straightening_cache[key] = [
                (term, poly.evaluate([self.q_val], self.domain))
                for term, poly in straightening_closed_form(a, b).items()]
        return self._straightening_cache[key]

    def _build_L1_matrix(self):
        d = self.domain
        cols = []
        for exps, w in self.basis:
            col = {}
            if exps[0] + 1 < self.r:
                e = (exps[0] + 1,) + exps[1:]
                col[self.index[(e, w)]] = d.one
            else:
                # L_1 * L_1^{r-1} reduces through the cyclotomic relation
                for j, c in enumerate(self.cyclo_red):
                    if not d.is_zero(c):
                        e = (j,) + exps[1:]
                        self._accumulate(col, (e, w), c)
            cols.append(d.nonzero(col))
        return cols

    def _accumulate(self, col, word, coeff):
        """col[word] += coeff with no zero check: each column is reduced
        once, by domain.nonzero, when it is complete."""
        idx = self.index[word]
        col[idx] = col[idx] + coeff if idx in col else coeff

    def _apply_L(self, i, vec):
        """L_i v for a sparse vector v, from the stored L_1 by the definition
        of the Jucys-Murphy elements, L_i = q^{-1} T_{i-1} L_{i-1} T_{i-1},
        unrolled: T_{i-1} .. T_1, L_1, T_1 .. T_{i-1}, then one scaling."""
        mats = self._matrices
        ts = [mats[("T", j)] for j in range(i - 2, -1, -1)]
        for cols in ts + [mats[("L", 1)]] + ts[::-1]:
            vec = self.domain.apply_cols(cols, vec)
        return vec if i == 1 else self.domain.scale(vec, self.q_inv ** (i - 1))

    # -- element constructors ---------------------------------------------

    def scalar(self, value):
        if isinstance(value, int):
            return self.domain.from_int(value)
        if isinstance(value, Fraction):
            return self.domain.from_fraction(value)
        return value

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {0: self.domain.one})

    def T(self, i):
        """The generator T_i, 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError("T index out of range")
        perm = right_mult_simple(self._identity_perm, i - 1)
        return self.basis_element(self.index[((0,) * self.n, perm)])

    def basis_element(self, idx):
        return AlgebraElement(self, {idx: self.domain.one})

    def generators(self):
        """T_1..T_{n-1} and L_1: a generating set of the algebra."""
        return [self.T(i) for i in range(1, self.n)] + [self.jm_element(1)]

    # -- multiplication ----------------------------------------------------

    def _column_steps(self):
        """The column recurrence of right multiplication: for each PBW word
        b after 1, in basis order, (p, g, i) with b x = g_i (p x), p an
        earlier word and g_i the generator T_{i+1} (g = "T") or L_i (g =
        "L"). T_w = T_i T_{s_i w}, i the first letter of the reduced word
        of w (T_w is the same for every reduced word), then L^a T_w = L_j
        L^a' T_w, a' being a with one power less at its first nonzero place
        j. check_relations certifies the steps for every x."""
        steps = [None]
        for exps, w in self.basis[1:]:
            if any(exps):
                j = next(i for i, a in enumerate(exps) if a)
                prev = (exps[:j] + (exps[j] - 1,) + exps[j + 1:], w)
                steps.append((self.index[prev], "L", j + 1))
            else:
                i = reduced_word(w)[0]
                prev = (exps, left_mult_simple(i, w))
                steps.append((self.index[prev], "T", i))
        return steps

    def _column(self, cols, b):
        """b x, x = cols[0], by one step from the column of an earlier word;
        cols maps words to the columns found so far and keeps this one."""
        if b not in cols:
            prev, g, i = self._steps[b]
            vec = self._column(cols, prev)
            cols[b] = (self.domain.apply_cols(self._matrices[("T", i)], vec)
                       if g == "T" else self._apply_L(i, vec))
        return cols[b]

    def right_multiplication_matrix(self, x):
        """Columns of right multiplication by x, column b being b x."""
        cols = {0: x.terms}
        for b in range(1, self.dim):
            self._column(cols, b)
        return list(cols.values())

    def multiply(self, x, y):
        """Product x * y in PBW normal form: the columns b y of the words b
        of x, each built once, summed with the coefficients of x."""
        cols = {0: y.terms}
        out = {}
        for b, c in x.terms.items():
            self.domain.add_scaled(out, self._column(cols, b), c)
        return AlgebraElement(self, out)

    # -- named operations ---------------------------------------------------

    def jm_element(self, i):
        """The Jucys-Murphy element L_i in PBW normal form."""
        if not 1 <= i <= self.n:
            raise ValueError("L index out of range")
        return AlgebraElement(self, self._apply_L(i, {0: self.domain.one}))

    def apply_symmetric_jm(self, vec):
        """[e_1 v, ..., e_n v] for a sparse vector v, e_k = e_k(L_1..L_n), in
        one sweep over L_1..L_n: E_k += L_i E_{k-1}, highest k first, so
        every E_{k-1} read is still the one from before L_i."""
        row = [vec]
        for i in range(1, self.n + 1):
            row.append(self._apply_L(i, row[-1]))
            for k in range(len(row) - 2, 0, -1):
                self.domain.add_scaled(row[k], self._apply_L(i, row[k - 1]))
        return row[1:]

    def apply_symmetric_jm_inverse(self, vec):
        """e_n^{-1} v = L_n^{-1} ... L_1^{-1} v for a sparse vector v, with
        coefficients in the ring generated by the parameters and their
        inverses.

        L_1^{-1} comes from the cyclotomic relation: with L_1^r =
        sum_j c_j L_1^j, L_1^{-1} = c_0^{-1} (L_1^{r-1} - sum_{j>=1} c_j
        L_1^{j-1}), applied by Horner's rule. Then T_i^{-1} = q^{-1} (T_i -
        (q-1)) and L_{i+1}^{-1} = q T_i^{-1} L_i^{-1} T_i^{-1}. The scalars
        c_0^{-1} and q^{-1} are collected into one factor at the end."""
        d = self.domain
        c = self.cyclo_red
        qm1 = self.q_val - d.one

        def L1_inv(v):  # c_0 L_1^{-1}
            acc = v
            for j in range(self.r - 1, 0, -1):
                acc = d.apply_cols(self._matrices[("L", 1)], acc)
                d.add_scaled(acc, v, -c[j])
            return acc

        def T_shift(i, v):  # q T_i^{-1} = T_i - (q-1), 0-based i
            out = d.apply_cols(self._matrices[("T", i)], v)
            d.add_scaled(out, v, -qm1)
            return out

        def L_inv(i, v):  # c_0 q^(i-1) L_i^{-1}
            if i == 1:
                return L1_inv(v)
            return T_shift(i - 2, L_inv(i - 1, T_shift(i - 2, v)))

        for i in range(1, self.n + 1):
            vec = L_inv(i, vec)
        scale = d.inv(c[0]) ** self.n * self.q_inv ** (
            self.n * (self.n - 1) // 2)
        return d.scale(vec, scale)

    def symmetric_jm(self, k):
        """e_k(L_1, ..., L_n) in PBW normal form, 1 <= k <= n; the first call
        caches the whole row e_1..e_n, apply_symmetric_jm on 1."""
        if not 1 <= k <= self.n:
            raise ValueError("degree out of range")
        if self._sym_row is None:
            self._sym_row = [
                AlgebraElement(self, v)
                for v in self.apply_symmetric_jm({0: self.domain.one})]
        return self._sym_row[k - 1]

    def symmetric_jm_inverse(self):
        """e_n^{-1} = L_n^{-1} ... L_1^{-1}: apply_symmetric_jm_inverse on 1,
        cached."""
        if self._sym_inverse is None:
            self._sym_inverse = AlgebraElement(
                self, self.apply_symmetric_jm_inverse({0: self.domain.one}))
        return self._sym_inverse

    def invert(self, x):
        """x^{-1} by solving z * x = 1 on the columns of right multiplication
        by x, then checking x * z = z * x = 1 with multiply.

        Needs a field domain; over the rationals and cyclotomic fields it is
        the reference that symmetric_jm_inverse is tested against."""
        d = self.domain
        rows = transpose(self.right_multiplication_matrix(x), self.dim)
        rhs = [d.one] + [d.zero] * (self.dim - 1)
        z = AlgebraElement(self, solve_linear(rows, rhs, d, self.dim))
        if not (self.multiply(x, z) == self.one()
                and self.multiply(z, x) == self.one()):
            raise NotInvertibleError("element is not invertible")
        return z


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

def _steps(d, cols):
    """For each basis word b, the word c when column b of cols is a single
    entry x e_c with x != 0 and c != b, else None."""
    return [next(iter(col)) if len(col) == 1 and b not in col
            and not d.is_zero(*col.values()) else None
            for b, col in enumerate(cols)]


def _roots(steps, dim):
    """The root words of a set of generators, one _steps list each: every
    basis word is reached from them along steps. Sources, the words that
    no step reaches, come first; then, while a word is unreached (on a
    cycle, as for T_i at q = 1), the first one in index order. Sorted."""
    targets = {c for step in steps for c in step}
    roots, reached = [], set()
    for b in itertools.chain((b for b in range(dim) if b not in targets),
                             range(dim)):
        if b not in reached:
            roots.append(b)
            stack = [b]
            while stack:
                w = stack.pop()
                if w not in reached:
                    reached.add(w)
                    stack += [s[w] for s in steps if s[w] is not None]
    return sorted(roots)


def _presentation(ctx):
    """(name, words, lhs, rhs) for each relation of the Ariki-Koike
    presentation with T_0 = L_1, in the certificate's order (module
    docstring): lhs and rhs give the two sides' columns at a basis word,
    to be evaluated on the root words only. Commutation of every L_i with
    L_j, and of T_i with L_j for j not in {i, i+1}, is a theorem in any
    representation of the presentation, so those pairs are not checked."""
    d = ctx.domain
    n = ctx.n
    gens = [ctx._matrices[("L", 1)]] + [
        ctx._matrices[("T", i)] for i in range(n - 1)]

    steps = [_steps(d, cols) for cols in gens]
    roots = cache(lambda *g: _roots([steps[k] for k in g], ctx.dim))

    def side(word, b):
        v = gens[word[-1]][b]
        for g in reversed(word[:-1]):
            v = d.apply_cols(gens[g], v)
        return v

    def family(name, g, lhs, rhs):  # two generator words, on the roots of g
        return name, roots(*g), partial(side, lhs), partial(side, rhs)

    def quadratic_rhs(i, b):
        v = {b: ctx.q_val}
        d.add_scaled(v, gens[i][b], ctx.q_val - d.one)
        return v

    def cyclotomic(b):
        v = dict(gens[0][b])
        d.add_scaled(v, {b: -ctx.Q_vals[0]})
        for Q in ctx.Q_vals[1:]:
            v, w = d.apply_cols(gens[0], v), v
            d.add_scaled(v, w, -Q)
        return v

    for i in range(1, n):
        yield (f"quadratic T{i}", roots(i), partial(side, (i, i)),
               partial(quadratic_rhs, i))
    yield "cyclotomic prod (L1 - Qi)", roots(0), cyclotomic, lambda b: {}
    for i in range(1, n):
        for j in range(i + 2, n):
            yield family(f"commute T{i} T{j}", (i, j), (i, j), (j, i))
    if ctx.r > 1:  # else the cyclotomic relation makes L_1 the scalar Q_1
        if n >= 2:
            # at r = 2 the certified T_0^2 = c_1 T_0 + c_0 lets L_1 join
            yield family("commute L1 L2", (0, 1) if ctx.r == 2 else (1,),
                         (0, 1, 0, 1), (1, 0, 1, 0))
        for i in range(2, n):
            yield family(f"commute T{i} L1", (i,), (i, 0), (0, i))
    for i in range(1, n - 1):
        yield family(f"braid T{i} T{i + 1}", (i, i + 1), (i, i + 1, i),
                     (i + 1, i, i + 1))


def _mismatch(ctx, name, j, lhs, rhs):
    """The witness of relation name on basis word j when its two sides lhs
    and rhs differ there, else None."""
    diff = dict(lhs)
    ctx.domain.add_scaled(diff, rhs, -ctx.domain.one)
    if not diff:
        return None
    return {"relation": name, "word": ctx.basis_element(j).render(),
            "residual": AlgebraElement(ctx, diff).render()}


def _presentation_witness(ctx):
    """The witness of the first relation of _presentation that fails, at its
    first failing root word, or None. Columns are compared as dicts; the
    residual is computed only on a mismatch."""
    for name, words, lhs, rhs in _presentation(ctx):
        for j in words:
            if (a := lhs(j)) != (b := rhs(j)) and (
                    witness := _mismatch(ctx, name, j, a, b)):
                return witness
    return None


def check_relations(ctx):
    """Certify the engine product.

    1. Every relation of the Ariki-Koike presentation (T_0 = L_1) holds as
       an operator identity on the whole PBW basis, evaluated on the
       columns of its roots (_presentation), so the stored generator
       matrices define a representation rho of the algebra on the
       coordinate space.
    2. Reconstruction: column b of right_multiplication_matrix(1) is e_b
       for every PBW word b. The recurrence makes that column rho(b) 1, so
       h -> rho(h) 1 is onto and sends each word to its own coordinate.
       PBW words span the algebra (Ariki-Koike, Adv. Math. 106, 1994), so
       rho is the regular representation in PBW coordinates, and the
       column steps on any x give rho(b) x = b x, in multiply too.
    3. The definition q L_{i+1} = T_i L_i T_i of each higher L_i, as
       applied by _apply_L, on the identity word (at r = 1 no PBW word has
       an L factor, so reconstruction never applies them). _apply_L is a
       product of generator operators, and in the regular representation
       such an operator is fixed by its value on 1. Steps 2 and 3 are the
       only ones that run _apply_L.

    The first failure stops the check with a witness."""
    start = time.perf_counter()
    d = ctx.domain
    witness = _presentation_witness(ctx)
    reconstructed = 0
    if witness is None:
        for j, col in enumerate(ctx.right_multiplication_matrix(ctx.one())):
            unit = {j: d.one}
            if col != unit and (
                    witness := _mismatch(ctx, "reconstruction", j, col, unit)):
                break
            reconstructed += 1
    if witness is None:
        unit = {0: d.one}
        for i in range(1, ctx.n):
            T = partial(ctx.domain.apply_cols, ctx._matrices[("T", i - 1)])
            witness = _mismatch(
                ctx, f"conjugation q L{i + 1} = T{i} L{i} T{i}", 0,
                d.scale(ctx._apply_L(i + 1, unit), ctx.q_val),
                T(ctx._apply_L(i, T(unit))))
            if witness:
                break
    return VerificationReport(
        check="check_relations",
        params={"n": ctx.n, "r": ctx.r, "domain": ctx.domain.name,
                "reconstructed": reconstructed},
        witnesses=[] if witness is None else [witness],
        duration=time.perf_counter() - start,
    )


def symbolic_context(n, r, **kwargs):
    """Context over the Laurent ring Z[q^+-1, Q_i^+-1] (with rational
    coefficients), q and Q_i the coordinate variables: the algebra is free
    over this ring with the PBW basis, so every coefficient is a Laurent
    polynomial."""
    q_val, *Q_vals = (LaurentPoly.variable(k, 1 + r) for k in range(1 + r))
    return AlgebraContext(n, r, LaurentDomain(r), q_val, Q_vals, **kwargs)

"""Exact arithmetic tower: rationals, sparse multivariate Laurent polynomials,
cyclotomic number fields, and the pluggable scalar domains built on them.

Everything here is immutable after construction and exact (big integers
and rationals underneath, no floats anywhere). Cyclotomic numbers are
integer numerators over one common denominator.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


class DomainError(Exception):
    """Evaluation or coercion outside the domain (e.g. inverting zero)."""


class NotInvertibleError(DomainError):
    """Element has no inverse in its domain."""


class UnsupportedDomainError(DomainError):
    """Operation not available over this scalar domain."""


def euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            count += 1
    return count


@functools.cache
def cyclotomic_polynomial(order):
    """Coefficients (ascending, ints) of the cyclotomic polynomial of the
    given order: x^order - 1 divided exactly by the cyclotomic polynomial of
    each proper divisor, by synthetic division (each divisor is monic with
    integer coefficients, so every quotient stays integral).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            divisor = cyclotomic_polynomial(d)
            m = len(divisor) - 1
            quot = [0] * (len(poly) - m)
            for k in reversed(range(len(quot))):
                c = quot[k] = poly[k + m]
                for i, a in enumerate(divisor):
                    poly[k + i] -= c * a
            assert not any(poly), "cyclotomic division must be exact"
            poly = quot
    assert len(poly) == euler_phi(order) + 1
    return tuple(poly)


def _power(x, k, one):
    """x ** k by square-and-multiply from ``one``; a negative k inverts x
    first."""
    if not isinstance(k, int):
        return NotImplemented
    if k < 0:
        x, k = x.inverse(), -k
    result = one
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Sparse Laurent polynomial in ``nvars`` commuting variables with
    rational coefficients. The constructor stores an integral coefficient
    as ``int`` and any other as ``Fraction``; sums and products of ints
    stay ints, while those of Fractions stay Fractions even when integral
    (the two compare and hash alike).

    Terms map exponent tuples (ints, possibly negative) to nonzero
    coefficients; the term map is the canonical form, so equality is map
    equality. By convention slot 0 is the Hecke parameter q and slots 1..r
    the cyclotomic parameters Q_1..Q_r, but nothing below depends on that
    reading.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong length")
                if type(coeff) is not int:
                    coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None

    @classmethod
    def _from_terms(cls, nvars, terms):
        """Wrap a term map that is already canonical (exponent tuples of
        length nvars, no zero coefficient), without copying or checking
        it."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, coeff, nvars):
        return cls(nvars, {(0,) * nvars: coeff})

    @classmethod
    def monomial(cls, coeff, exps):
        return cls(len(exps), {tuple(exps): coeff})

    @classmethod
    def variable(cls, slot, nvars, power=1):
        exps = [0] * nvars
        exps[slot] = power
        return cls.monomial(1, exps)

    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other, self.nvars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, 0) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return LaurentPoly._from_terms(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_terms(
            self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(other.terms) == 1:
            # a monomial shifts every exponent alike: no two terms meet
            ((e2, c2),) = other.terms.items()
            return LaurentPoly._from_terms(self.nvars, {
                tuple(map(operator.add, e1, e2)): c1 * c2
                for e1, c1 in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                acc = terms.get(e, 0) + c1 * c2
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        return LaurentPoly._from_terms(self.nvars, terms)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse of a single-term (monomial) Laurent polynomial; a
        coefficient of 1 or -1 is its own inverse and stays an int."""
        if len(self.terms) != 1:
            raise NotInvertibleError("only monomials are invertible")
        ((e, c),) = self.terms.items()
        inv = c if c in (1, -1) else 1 / Fraction(c)
        return LaurentPoly.monomial(inv, tuple(-x for x in e))

    def __pow__(self, k):
        return _power(self, k, LaurentPoly.const(1, self.nvars))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other, self.nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        """A constant (zero included) hashes as its coefficient, so equal
        objects hash equally; anything else hashes from its term map."""
        if self._hash is None:
            origin = (0,) * self.nvars
            if self.terms.keys() <= {origin}:
                self._hash = hash(self.terms.get(origin, 0))
            else:
                self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self):
        """Terms in total-degree then lexicographic order (the canonical
        iteration order used for printing)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def render(self, names=None):
        if names is None:
            names = ["q"] + [f"Q{i}" for i in range(1, self.nvars)]
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            vars_part = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps) if e != 0
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return self.render()

    def evaluate(self, values, domain):
        """Image under the ring homomorphism sending variable i to
        values[i]; negative exponents use domain inverses."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = domain.zero
        for exps, coeff in self.terms.items():
            term = domain.from_fraction(coeff)
            for v, e in zip(values, exps):
                if e == 0:
                    continue
                base = v if e > 0 else domain.inv(v)
                for _ in range(abs(e)):
                    term = term * base
            total = total + term
        return total


def elementary_symmetric(values, one):
    """The row [e_0, e_1, ..., e_m] of a list of m ring elements (the
    coefficients of prod (x + v), highest power first) in one sweep: each v
    multiplies the row by (1 + v t), highest degree first, so every e_{j-1}
    read is still the one from before v."""
    row = [one]
    for v in values:
        row.append(row[-1] * v)
        for j in range(len(row) - 2, 0, -1):
            row[j] = row[j] + row[j - 1] * v
    return row


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

@functools.cache
def _field(order):
    """(phi, rows) for the cyclotomic field of the given order: rows[k - phi]
    holds the nonzero (i, c) of x^k mod the cyclotomic polynomial, for
    phi <= k <= max(2 phi - 2, order - 1). The polynomial is monic with
    integer coefficients, so every row is integral."""
    modulus = cyclotomic_polynomial(order)
    phi = len(modulus) - 1
    base = [-c for c in modulus[:phi]]  # x^phi
    row, rows = base, []
    for _ in range(max(phi - 1, order - phi)):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [top * b + a for a, b in zip([0] + row[:-1], base)]
    return phi, rows


def _reduce(vec, phi, rows):
    """The integer vector vec (ascending powers, length at most
    phi + len(rows)) mod the cyclotomic polynomial, as a tuple of phi ints."""
    low = list(vec[:phi]) + [0] * (phi - len(vec))
    for k in range(phi, len(vec)):
        c = vec[k]
        if c:
            for i, r in rows[k - phi]:
                low[i] += c * r
    return tuple(low)


def _mul_num(a, b, phi, rows):
    """Product of two integer residues: schoolbook, then one table pass."""
    out = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, phi, rows)


def _canonical(num, den):
    """num/den with gcd(den, *num) = 1 (den > 0 on input); zero is 0/1."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return num, den


class CyclotomicNumber:
    """Element of the cyclotomic field of the given order: the residue mod
    the cyclotomic polynomial with coefficients ``num[i] / den``, for a
    tuple ``num`` of phi(order) ints and one int ``den``.

    The form is canonical (den > 0, gcd(den, *num) = 1, zero is all zeros
    over 1), so equality is tuple equality. Products are integer schoolbook
    products reduced through a cached table of powers of the root. The
    coefficients as ``Fraction``s are the read-only ``coeffs``.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        phi, rows = _field(order)
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        vec = [0] * min(len(coeffs), order)
        for k, c in enumerate(coeffs):  # x^order = 1 mod the polynomial
            vec[k % order] += c.numerator * (den // c.denominator)
        self.order = order
        self.num, self.den = _canonical(_reduce(vec, phi, rows), den)

    @classmethod
    def _make(cls, order, num, den):
        self = object.__new__(cls)
        self.order = order
        self.num, self.den = _canonical(num, den)
        return self

    @classmethod
    def from_fraction(cls, order, value):
        return cls(order, [value])

    @classmethod
    def zeta(cls, order, power=1):
        """The root of unity zeta_order ** power."""
        return cls(order, [0] * (power % order) + [1])

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def _operand(self, other):
        """(num, den) of an element of the same field or of a rational;
        None for anything else."""
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError("cyclotomic order mismatch")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) + (0,) * (len(self.num) - 1),
                    other.denominator)
        return None

    def _combine(self, other, op):
        parts = self._operand(other)
        if parts is None:
            return NotImplemented
        num, den = parts
        if den == self.den:
            return CyclotomicNumber._make(
                self.order, tuple(map(op, self.num, num)), den)
        return CyclotomicNumber._make(
            self.order, tuple(op(a * den, b * self.den)
                              for a, b in zip(self.num, num)),
            self.den * den)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return CyclotomicNumber._make(
            self.order, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        parts = self._operand(other)
        if parts is None:
            return NotImplemented
        num, den = parts
        phi, rows = _field(self.order)
        return CyclotomicNumber._make(
            self.order, _mul_num(self.num, num, phi, rows), self.den * den)

    __rmul__ = __mul__

    def inverse(self):
        """den * P / N: P is the product of the Galois conjugates of the
        integral numerator a (a(x) -> a(x^k) for 1 < k < order prime to
        order), and N = a P is the norm of a, a nonzero rational integer
        because the cyclotomic polynomial is irreducible."""
        if self.is_zero():
            raise NotInvertibleError("zero has no inverse")
        order = self.order
        phi, rows = _field(order)
        conj = (1,) + (0,) * (phi - 1)
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                vec = [0] * order
                for i, c in enumerate(self.num):
                    vec[i * k % order] += c
                conj = _mul_num(conj, _reduce(vec, phi, rows), phi, rows)
        norm, *rest = _mul_num(self.num, conj, phi, rows)
        assert not any(rest), "the norm must be rational"
        sign = 1 if norm > 0 else -1
        return CyclotomicNumber._make(
            order, tuple(sign * self.den * c for c in conj), abs(norm))

    def __pow__(self, k):
        return _power(self, k, CyclotomicNumber.from_fraction(self.order, 1))

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return (self.order == other.order and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        """A rational value hashes as that Fraction, so equal objects hash
        equally; any other value hashes from (order, num, den)."""
        if any(self.num[1:]):
            return hash((self.order, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))

    def render(self):
        name = f"zeta_{self.order}"
        poly = LaurentPoly(1, {(i,): c for i, c in enumerate(self.coeffs) if c})
        return poly.render([name])

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# scalar domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Tagged choice of exact coefficient ring with its ring operations.

    Elements carry their own arithmetic through operator overloading; the
    domain supplies constants, coercions, inverses and rendering, and owns
    the sparse inner loops on vectors, dicts {index: nonzero entry}.
    """

    name = "abstract"

    def inv(self, x):
        raise NotImplementedError

    def is_zero(self, x):
        raise NotImplementedError

    def render(self, x):
        return str(x)

    def canonical(self, x):
        """The canonical form of x, so that equal elements compare equal:
        x itself, except over the prime field."""
        return x

    def nonzero(self, vec):
        """A copy of vec without its zero entries."""
        is_zero = self.is_zero
        return {k: x for k, x in vec.items() if not is_zero(x)}

    def scale(self, vec, c):
        """c * vec for a nonzero scalar c."""
        return {k: x * c for k, x in vec.items()}

    def add_scaled(self, out, vec, coeff=None):
        """out += coeff * vec in place (coeff None means 1), dropping
        entries that cancel."""
        is_zero = self.is_zero
        for k, c in vec.items():
            if coeff is not None:
                c = coeff * c
            acc = out[k] + c if k in out else c
            if is_zero(acc):
                out.pop(k, None)
            else:
                out[k] = acc

    def apply_cols(self, cols, vec):
        """The matrix with sparse columns cols applied to vec."""
        out = {}
        for j, c in vec.items():
            for k, m in cols[j].items():
                if k in out:
                    out[k] += m * c
                else:
                    out[k] = m * c
        return self.nonzero(out)


class RationalDomain(ScalarDomain):
    name = "rational"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, f):
        return Fraction(f)

    def inv(self, x):
        if x == 0:
            raise NotInvertibleError("zero has no inverse")
        return Fraction(1) / x

    def is_zero(self, x):
        return x == 0


PRIME = 2 ** 30 - 35  # the largest prime below 2^30: one machine digit


class PrimeFieldDomain(ScalarDomain):
    """The prime field F_p, p = PRIME as read at construction unless given.
    Elements are plain ints in [0, p). Every method accepts any int, so the
    ring operators of the callers need no reduction: the vector methods
    accumulate raw products and reduce once per output entry."""

    def __init__(self, p=None):
        self.p = PRIME if p is None else p
        self.name = f"prime_{self.p}"
        self.zero = 0
        self.one = 1

    def from_int(self, k):
        return k % self.p

    def from_fraction(self, f):
        f = Fraction(f)
        return f.numerator * self.inv(f.denominator) % self.p

    def inv(self, x):
        x %= self.p
        if not x:
            raise NotInvertibleError("zero has no inverse")
        return pow(x, -1, self.p)

    def is_zero(self, x):
        return not x % self.p

    def canonical(self, x):
        return x % self.p

    def nonzero(self, vec):
        p = self.p
        return {k: y for k, x in vec.items() if (y := x % p)}

    def scale(self, vec, c):
        p = self.p
        c %= p
        return {k: x * c % p for k, x in vec.items()} if c else {}

    def add_scaled(self, out, vec, coeff=None):
        p = self.p
        coeff = 1 if coeff is None else coeff % p
        get = out.get
        for k, c in vec.items():
            acc = (get(k, 0) + c * coeff) % p
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)


_WITNESSES = (2, 3, 5, 7)  # Miller-Rabin bases, exact below 3,215,031,751


def _is_prime(n):
    """Miller-Rabin with the bases 2, 3, 5 and 7: exact for n below
    3,215,031,751, the least strong pseudoprime to all four."""
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_and_root(bound, order):
    """(p, omega): the largest prime p <= bound with p = 1 mod order, and
    omega = g^((p - 1) / order) mod p for the first g = 1, 2, ... that makes
    omega a primitive order-th root of unity. None when there is no such
    prime."""
    if bound >= 3_215_031_751:
        raise ValueError("the primality test is exact only below 3.2e9")
    p = bound - (bound - 1) % order
    while p > 1 and not _is_prime(p):
        p -= order
    if p < 2:
        return None
    for g in range(1, p):
        omega = pow(g, (p - 1) // order, p)
        if all(pow(omega, k, p) != 1 for k in range(1, order)):
            return p, omega


def prime_field_reduction(order):
    """(domain, image): F_p for the largest prime p <= PRIME with p = 1 mod
    order, and the ring map image onto it from the elements of the
    cyclotomic field of that order (or rationals) whose denominator is
    prime to p, sending zeta_order to a primitive order-th root omega mod p.
    It is well defined because omega is a root of the cyclotomic polynomial
    mod p, and image raises NotInvertibleError when p divides the
    denominator. Order 1 is the rationals, with p = PRIME; None when no
    prime qualifies."""
    found = _prime_and_root(PRIME, order)
    if found is None:
        return None
    p, omega = found
    domain = PrimeFieldDomain(p)
    powers = [pow(omega, i, p) for i in range(euler_phi(order))]

    def image(x):
        if isinstance(x, CyclotomicNumber):
            return (sum(map(operator.mul, x.num, powers))
                    * domain.inv(x.den) % p)
        return domain.from_fraction(x)

    return domain, image


def reduce_parameters(q, Qs):
    """(domain, image, q_p, Qs_p): prime_field_reduction for the order of
    the cyclotomic field of q (1 for rationals), and the images q_p, Qs_p
    of the parameters. None when there is no prime, when it divides a
    denominator or when a parameter maps to 0."""
    reduction = prime_field_reduction(
        q.order if isinstance(q, CyclotomicNumber) else 1)
    if reduction is None:
        return None
    domain, image = reduction
    try:
        images = [image(x) for x in [q, *Qs]]
    except NotInvertibleError:
        return None
    return (domain, image, images[0], images[1:]) if all(images) else None


class CyclotomicDomain(ScalarDomain):
    def __init__(self, order):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.name = f"cyclotomic_{order}"
        self.zero = CyclotomicNumber.from_fraction(order, 0)
        self.one = CyclotomicNumber.from_fraction(order, 1)

    def zeta(self, power=1):
        return CyclotomicNumber.zeta(self.order, power)

    def from_int(self, k):
        return CyclotomicNumber.from_fraction(self.order, k)

    def from_fraction(self, f):
        return CyclotomicNumber.from_fraction(self.order, f)

    def inv(self, x):
        return self._as_element(x).inverse()

    def _as_element(self, x):
        if isinstance(x, CyclotomicNumber):
            return x
        return self.from_fraction(x)

    def is_zero(self, x):
        return x == 0

    def render(self, x):
        return self._as_element(x).render()


class LaurentDomain(ScalarDomain):
    """Laurent polynomials in q, Q_1..Q_r with rational coefficients.

    The Ariki-Koike algebra is free over this ring with the PBW basis, so
    every structure constant is an element of it. It is not a field: only
    monomials are units, and exact linear algebra rejects it.
    """

    def __init__(self, num_Q):
        self.nvars = 1 + num_Q
        self.name = f"laurent_{num_Q}"
        self.zero = LaurentPoly.zero(self.nvars)
        self.one = LaurentPoly.const(1, self.nvars)

    def from_int(self, k):
        return LaurentPoly.const(k, self.nvars)

    def from_fraction(self, f):
        return LaurentPoly.const(f, self.nvars)

    def inv(self, x):
        """Inverse of a monomial; NotInvertibleError for anything else."""
        return x.inverse()

    def is_zero(self, x):
        return x.is_zero()

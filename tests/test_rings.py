import itertools
import math
import operator
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from cyclohecke.rings import (
    CyclotomicDomain,
    CyclotomicNumber,
    LaurentDomain,
    LaurentPoly,
    NotInvertibleError,
    PrimeFieldDomain,
    RationalDomain,
    cyclotomic_polynomial,
    elementary_symmetric,
    euler_phi,
)


def random_poly(rng, nvars=2, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + Fraction(
            rng.randint(-9, 9), rng.randint(1, 9))
    return LaurentPoly(nvars, terms)


class TestLaurentPoly:
    def test_canonical_form_drops_zeros(self):
        p = LaurentPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert list(p.terms) == [(1, 0)]

    def test_equality_is_term_map_equality(self):
        q = LaurentPoly.variable(0, 2)
        assert q * q - q * q == LaurentPoly.zero(2)
        assert (q + 1) * (q - 1) == q * q - 1

    def test_ring_axioms_1000_random_triples(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = random_poly(rng)
            b = random_poly(rng)
            c = random_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + b == b + a

    def test_monomial_inverse(self):
        m = LaurentPoly.monomial(Fraction(3, 2), (2, -1))
        assert m * m.inverse() == LaurentPoly.const(1, 2)
        with pytest.raises(NotInvertibleError):
            (m + 1).inverse()

    def test_negative_power_of_monomial(self):
        q = LaurentPoly.variable(0, 1)
        assert q ** -2 * q ** 2 == LaurentPoly.const(1, 1)

    def test_render_canonical_order(self):
        q, Q1 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        p = Q1 * q ** 2 - q + LaurentPoly.const(Fraction(3, 2), 2)
        assert p.render() == "3/2 - q + q^2*Q1"
        assert LaurentPoly.zero(2).render() == "0"
        assert (-Q1).render() == "-Q1"

    def test_integer_products_keep_int_coefficients(self):
        q, Q1 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        p = (q + 2 * Q1 - 3) * (q ** -1 - Q1) * LaurentPoly.const(
            Fraction(4), 2)
        assert p.terms
        assert all(type(c) is int for c in p.terms.values())

    def test_fraction_and_int_coefficients_agree(self):
        a = LaurentPoly(2, {(1, 0): Fraction(2), (0, -1): Fraction(-3)})
        b = LaurentPoly(2, {(1, 0): 2, (0, -1): -3})
        assert a == b
        assert hash(a) == hash(b)
        assert a.render() == b.render() == "-3*Q1^-1 + 2*q"

    def test_non_integral_coefficient(self):
        half = LaurentPoly.monomial(Fraction(1, 2), (1, 0))
        assert half.render() == "1/2*q"
        inv = half.inverse()
        assert inv.render() == "2*q^-1"
        assert inv.inverse() == half
        assert half * inv == LaurentPoly.const(1, 2)

    def test_integral_fraction_is_stored_as_int(self):
        p = LaurentPoly.monomial(Fraction(4, 2), (1, 0))
        assert p.terms == {(1, 0): 2}
        assert type(p.terms[(1, 0)]) is int

    def test_non_integral_fraction_stays_a_fraction(self):
        p = LaurentPoly.monomial(Fraction(1, 2), (1, 0))
        assert p.terms == {(1, 0): Fraction(1, 2)}
        assert type(p.terms[(1, 0)]) is Fraction

    def test_int_constants_keep_the_hash_contract(self):
        two = LaurentPoly.const(Fraction(4, 2), 2)
        assert type(two.terms[(0, 0)]) is int
        assert two == LaurentPoly.const(2, 2) == 2
        assert hash(two) == hash(2) == hash(Fraction(2))
        assert two in {2} and Fraction(2) in {two}

    @pytest.mark.parametrize("bad", [(1, 0, 0), (1,)],
                             ids=["wrong-nvars", "too-short"])
    def test_refuses_a_wrong_length(self, bad):
        LaurentPoly(2, {(0, 1): 1})
        with pytest.raises(ValueError, match="wrong length"):
            LaurentPoly(2, {(0, 1): 1, bad: 1})

    def test_unit_coefficient_inverse_stays_int(self):
        x = LaurentPoly.variable(0, 2)
        inv = (-x).inverse()
        assert inv == -LaurentPoly.variable(0, 2, power=-1)
        assert type(inv.terms[(-1, 0)]) is int
        assert (2 * x).inverse().terms == {(-1, 0): Fraction(1, 2)}


def _random_values(kind, rng, m):
    """m random ring elements of one kind, with the ring's one."""
    if kind == "fraction":
        return Fraction(1), [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(m)]
    if kind == "laurent":
        return LaurentPoly.const(1, 2), [random_poly(rng) for _ in range(m)]
    return CyclotomicDomain(5).one, [
        CyclotomicNumber(5, [rng.randint(-3, 3) for _ in range(euler_phi(5))])
        for _ in range(m)]


class TestElementarySymmetric:
    @pytest.mark.parametrize("kind", ["fraction", "laurent", "cyclotomic"])
    @pytest.mark.parametrize("m", range(7))
    def test_row_is_sum_over_subsets(self, kind, m):
        # oracle: e_k is the sum of the products of all k-element subsets
        rng = random.Random(m)
        one, values = _random_values(kind, rng, m)
        row = elementary_symmetric(values, one)
        assert len(row) == m + 1
        for k in range(m + 1):
            expected = one - one
            for subset in itertools.combinations(values, k):
                expected = expected + reduce(mul, subset, one)
            assert row[k] == expected, (kind, m, k)

    def test_poly_entry_point(self):
        x = [LaurentPoly.variable(i, 3) for i in range(3)]
        row = elementary_symmetric(x, LaurentPoly.const(1, 3))
        assert row == [LaurentPoly.const(1, 3), x[0] + x[1] + x[2],
                       x[0] * x[1] + x[0] * x[2] + x[1] * x[2],
                       x[0] * x[1] * x[2]]


class TestEvaluate:
    def test_root_of_own_factor(self):
        q = LaurentPoly.variable(0, 1)
        dom = RationalDomain()
        assert (q - 1).evaluate([Fraction(1)], dom) == 0

    def test_zeta2_reduces_to_minus_one(self):
        # q * Q_1 at q = zeta_2, Q_1 = 1 reduces mod x + 1 to -1
        dom = CyclotomicDomain(2)
        p = LaurentPoly.variable(0, 2) * LaurentPoly.variable(1, 2)
        value = p.evaluate([dom.zeta(1), dom.one], dom)
        assert value == dom.from_int(-1)

    def test_plain_arithmetic(self):
        q = LaurentPoly.variable(0, 1)
        dom = RationalDomain()
        assert ((q - 1) * (q + 1)).evaluate([Fraction(3)], dom) == 8

    def test_negative_exponent_needs_invertible_value(self):
        q = LaurentPoly.variable(0, 1)
        dom = RationalDomain()
        with pytest.raises(NotInvertibleError):
            (q ** -1).evaluate([Fraction(0)], dom)

    def test_is_ring_homomorphism(self):
        rng = random.Random(3)
        dom = RationalDomain()
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng)
            q_val = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            Q_val = Fraction(rng.randint(1, 20))
            args = ([q_val, Q_val], dom)
            assert (a * b).evaluate(*args) == \
                a.evaluate(*args) * b.evaluate(*args)
            assert (a + b).evaluate(*args) == \
                a.evaluate(*args) + b.evaluate(*args)

    def test_is_ring_homomorphism_cyclotomic(self):
        rng = random.Random(4)
        dom = CyclotomicDomain(4)
        zeta = dom.zeta(1)
        for _ in range(100):
            a = random_poly(rng)
            b = random_poly(rng)
            args = ([zeta, zeta + dom.one], dom)
            assert (a * b).evaluate(*args) == \
                a.evaluate(*args) * b.evaluate(*args)


class TestCyclotomic:
    def test_small_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        # derived by exact division of x^6 - 1 by Phi_1 Phi_2 Phi_3
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_product_over_divisors_is_x_to_l_minus_1(self):
        # the product is this file's oracle, not code from the package
        for order in range(1, 13):
            prod = [1]
            for d in range(1, order + 1):
                if order % d == 0:
                    prod = _oracle_mul(prod, cyclotomic_polynomial(d))
            assert prod == [-1] + [0] * (order - 1) + [1]

    @pytest.mark.parametrize("order", range(1, 13))
    def test_primitive_root_kills_its_polynomial(self, order):
        dom = CyclotomicDomain(order)
        zeta = dom.zeta(1)
        value = dom.zero
        power = dom.one
        for c in cyclotomic_polynomial(order):
            value = value + power * dom.from_int(c)
            power = power * zeta
        assert dom.is_zero(value)

    def test_inverse(self):
        rng = random.Random(5)
        dom = CyclotomicDomain(5)
        for _ in range(50):
            x = CyclotomicNumber(
                5, [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(5))])
            if dom.is_zero(x):
                continue
            assert x * x.inverse() == dom.one

    def test_zeta4_squares_to_minus_one(self):
        dom = CyclotomicDomain(4)
        assert dom.zeta(1) ** 2 == dom.from_int(-1)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicDomain(3).zeta(1) + CyclotomicDomain(4).zeta(1)


# Oracle: dense Fraction polynomials (ascending coefficients), the schoolbook
# product and the long division by the cyclotomic polynomial that
# CyclotomicNumber computed with before its integer form.

def _oracle_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _oracle_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _oracle_trim(out)


def _oracle_divmod(p, q):
    p = [Fraction(c) for c in p]
    q = _oracle_trim([Fraction(c) for c in q])
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(_oracle_trim(p)) >= len(q):
        p = _oracle_trim(p)
        shift = len(p) - len(q)
        factor = p[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
    return _oracle_trim(quot), _oracle_trim(p)


def _oracle_residue(order, coeffs):
    """The coefficient tuple of length phi(order) of coeffs mod Phi_order."""
    _, rem = _oracle_divmod(coeffs, cyclotomic_polynomial(order))
    return tuple(rem) + (Fraction(0),) * (euler_phi(order) - len(rem))


ORACLE_ORDERS = [1, 2, 3, 4, 5, 7, 8, 12]


def _random_coeffs(rng, length):
    """Rationals with small denominators, a third of them zero."""
    return [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
            if rng.random() > 0.3 else Fraction(0) for _ in range(length)]


def _random_element(rng, order):
    return CyclotomicNumber(order, _random_coeffs(rng, euler_phi(order)))


def _assert_canonical(x):
    assert x.den > 0
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num)
    assert math.gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1


class TestCyclotomicAgainstOracle:
    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_arithmetic_matches_fraction_polynomials(self, order):
        rng = random.Random(100 + order)
        for _ in range(60):
            x, y = _random_element(rng, order), _random_element(rng, order)
            a, b = list(x.coeffs), list(y.coeffs)
            assert (x * y).coeffs == _oracle_residue(order, _oracle_mul(a, b))
            assert (x + y).coeffs == tuple(map(operator.add, a, b))
            assert (x - y).coeffs == tuple(map(operator.sub, a, b))
            assert (-x).coeffs == tuple(-c for c in a)
            for z in (x * y, x + y, x - y, -x):
                _assert_canonical(z)

    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_constructor_reduces_long_vectors(self, order):
        rng = random.Random(200 + order)
        for length in range(3 * order + 2):
            coeffs = _random_coeffs(rng, length)
            x = CyclotomicNumber(order, coeffs)
            assert x.coeffs == _oracle_residue(order, coeffs)
            _assert_canonical(x)

    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_ring_axioms(self, order):
        rng = random.Random(300 + order)
        one = CyclotomicDomain(order).one
        for _ in range(40):
            x, y, z = (_random_element(rng, order) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            assert x + y == y + x
            assert x * one == x
            assert (x - x).is_zero()

    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_equal_values_have_equal_form(self, order):
        rng = random.Random(400 + order)
        for _ in range(40):
            x, y, z = (_random_element(rng, order) for _ in range(3))
            pairs = [((x * y) * z, x * (y * z)),
                     (x + y - y, x),
                     (CyclotomicNumber(order, x.coeffs), x),
                     (x - x, CyclotomicNumber(order, []))]
            for u, v in pairs:
                _assert_canonical(u)
                assert (u.order, u.num, u.den) == (v.order, v.num, v.den)
        zero = CyclotomicNumber(order, [Fraction(0, 1)] * 3)
        assert zero.num == (0,) * euler_phi(order) and zero.den == 1

    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_inverse(self, order):
        rng = random.Random(500 + order)
        for _ in range(40):
            x = _random_element(rng, order)
            if x.is_zero():
                with pytest.raises(NotInvertibleError):
                    x.inverse()
                continue
            inv = x.inverse()
            _assert_canonical(inv)
            assert x * inv == 1

    @pytest.mark.parametrize("order", ORACLE_ORDERS)
    def test_zeta_powers_by_repeated_multiplication(self, order):
        zeta = CyclotomicNumber.zeta(order, 1)
        zeta_inv = zeta.inverse()
        power = CyclotomicDomain(order).one
        for p in range(2 * order):
            assert CyclotomicNumber.zeta(order, p) == power, p
            power = power * zeta
        power = CyclotomicDomain(order).one
        for p in range(0, -order, -1):
            assert CyclotomicNumber.zeta(order, p) == power, p
            power = power * zeta_inv


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_rational_elements_hash_like_their_value(order):
    for value in (0, 2, -1, Fraction(3, 2), Fraction(-7, 4)):
        x = CyclotomicNumber.from_fraction(order, value)
        assert x == value and value == x
        assert hash(x) == hash(value)
        assert x in {value} and value in {x}
    x = CyclotomicNumber.from_fraction(order, Fraction(3, 2))
    assert x != 2 and 2 not in {x} and x not in {2}
    if order > 2:
        zeta = CyclotomicNumber.zeta(order, 1)
        assert all(zeta != v and v not in {zeta} for v in (1, -1, 0))


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_constant_laurent_polys_hash_like_their_value(nvars):
    for value in (0, 2, -1, Fraction(3, 2), Fraction(-7, 4)):
        x = LaurentPoly.const(value, nvars)
        assert x == value and value == x
        assert hash(x) == hash(value)
        assert x in {value} and value in {x}
    x = LaurentPoly.const(Fraction(3, 2), nvars)
    assert x != 2 and 2 not in {x} and x not in {2}
    q = LaurentPoly.variable(0, nvars)
    assert all(q != v and v not in {q} and q not in {v} for v in (1, -1, 0))


class TestLaurentDomain:
    def test_monomials_are_units(self):
        dom = LaurentDomain(1)
        x = LaurentPoly.variable(0, 2) * LaurentPoly.variable(1, 2)
        inv = dom.inv(x)
        assert inv == LaurentPoly.monomial(1, (-1, -1))
        assert x * inv == dom.one

    def test_other_elements_not_invertible(self):
        dom = LaurentDomain(1)
        with pytest.raises(NotInvertibleError):
            dom.inv(LaurentPoly.variable(0, 2) + 1)
        with pytest.raises(NotInvertibleError):
            dom.inv(dom.zero)

    def test_name(self):
        assert LaurentDomain(2).name == "laurent_2"


def _random_vector(rng, size=8, density=5):
    return {rng.randrange(size):
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(density)}


class TestPrimeFieldDomain:
    """The F_p vector methods against the rational ones reduced mod p."""

    def reduce(self, dom, vec):
        return dom.nonzero({k: dom.from_fraction(x) for k, x in vec.items()})

    def test_vector_methods_reduce_the_rational_results(self):
        fp, qq = PrimeFieldDomain(), RationalDomain()
        rng = random.Random(3)
        for _ in range(50):
            cols = [_random_vector(rng) for _ in range(8)]
            vec, out = _random_vector(rng), _random_vector(rng)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            cols_p = [self.reduce(fp, col) for col in cols]
            assert fp.apply_cols(cols_p, self.reduce(fp, vec)) == \
                self.reduce(fp, qq.apply_cols(cols, vec))
            assert fp.scale(self.reduce(fp, vec), fp.from_fraction(c)) == \
                self.reduce(fp, qq.scale(vec, c))
            got, want = self.reduce(fp, out), dict(out)
            fp.add_scaled(got, self.reduce(fp, vec), -fp.from_fraction(c))
            qq.add_scaled(want, vec, -c)
            assert got == self.reduce(fp, want)

    def test_cancellation_mod_p_drops_the_entry(self):
        fp = PrimeFieldDomain()
        out = {0: 1, 1: 2}
        fp.add_scaled(out, {0: fp.p - 1, 1: 5})
        assert out == {1: 7}
        assert fp.nonzero({0: fp.p, 1: -1}) == {1: fp.p - 1}

    def test_prime_dividing_a_denominator_is_refused(self):
        fp = PrimeFieldDomain()
        assert fp.from_fraction(Fraction(-1, 2)) * 2 % fp.p == fp.p - 1
        with pytest.raises(NotInvertibleError):
            fp.from_fraction(Fraction(1, fp.p))
        with pytest.raises(NotInvertibleError):
            fp.inv(3 * fp.p)


@given(st.integers(min_value=1, max_value=30))
def test_euler_phi_matches_gcd_count(n):
    import math
    assert euler_phi(n) == sum(
        1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

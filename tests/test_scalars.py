import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

import utchar
from utchar import algebra
from utchar.scalars import (STANDARD_MODULI, AdditiveCharacter,
                            CyclotomicNumber, Field, VerificationFailed,
                            _is_irreducible, _zpoly_exact_div,
                            cyclotomic_polynomial, field_make, in_subfield,
                            prime_power_split, root_of_unity_order)

from oracles import DigitField, FractionCyclotomic


def test_field_make_prime_field():
    f = field_make(2, 1)
    assert f.q == 2 and f.modulus == (0, 1)


def test_field_make_f4_multiplication():
    f4 = field_make(2, 2)
    assert f4.mul(2, 3) == 1  # w * (w + 1) = 1


def test_field_make_f9_explicit_modulus():
    # x^2 + 1 has no root over F_3, so it is irreducible
    assert all(pow(x, 2, 3) != 2 for x in range(3))
    f9 = field_make(3, 2, [1, 0, 1])
    assert f9.q == 9
    assert f9.mul(3, 3) == f9.neg(1)  # 3 encodes the class of x


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        field_make(2, 7)  # q = 128 > 64: no built-in modulus


def test_field_accepts_exactly_the_primes():
    for p in range(-2, 60):
        if p >= 2 and all(p % d for d in range(2, p)):
            assert field_make(p, 1).q == p
        else:
            with pytest.raises(ValueError, match=f"p = {p} is not prime"):
                field_make(p, 1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (5, 1)])
def test_field_axioms_spot(p, e, rng):
    f = field_make(p, e)
    els = list(range(f.q))
    for _ in range(120):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def assert_matches_digit_arithmetic(f, pairs):
    """neg, inv and trace on every element of f, and add, sub, mul and div
    on the given pairs, against base-p digit arithmetic."""
    digits = DigitField(f)
    inverse = [None] + [digits.inv(a) for a in range(1, f.q)]
    for a in range(f.q):
        assert f.neg(a) == digits.neg(a)
        assert f.trace(a) == digits.trace(a)
        if a:
            assert f.inv(a) == inverse[a]
    for a, b in pairs:
        assert f.add(a, b) == digits.add(a, b)
        assert f.sub(a, b) == digits.sub(a, b)
        assert f.mul(a, b) == digits.mul(a, b)
        if b:
            assert f.div(a, b) == digits.mul(a, inverse[b])


@pytest.mark.parametrize("p,e", sorted(STANDARD_MODULI))
def test_extension_tables_match_digit_arithmetic(p, e):
    f = field_make(p, e)
    assert_matches_digit_arithmetic(f, itertools.product(range(f.q), repeat=2))


@pytest.mark.parametrize("p,modulus,samples", [
    (3, (1, 0, 1), None),  # x^2 = -1: x has order 4 in F_9^x
    (5, (2, 0, 1), None),  # x^2 = 3: x has order 8 in F_25^x
    (2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1), 20000),
    (2, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 20000),
    (3, (1, 0, 2, 0, 0, 0, 0, 1), 20000)],
    ids=["F9", "F25", "F512", "F1024", "F2187"])
def test_explicit_moduli_match_digit_arithmetic(p, modulus, samples, rng):
    f = field_make(p, len(modulus) - 1, modulus)
    if samples is None:
        pairs = itertools.product(range(f.q), repeat=2)
    else:
        pairs = [(rng.randrange(f.q), rng.randrange(f.q))
                 for _ in range(samples)]
    assert_matches_digit_arithmetic(f, pairs)


def test_modulus_has_one_normal_form():
    f4 = field_make(2, 2)
    for modulus in ([1, 1, 1, 0], [3, -1, 1], (1, 1, 1, 0, 0)):
        f = field_make(2, 2, modulus)
        assert f is f4 and f.modulus == (1, 1, 1)
        assert Field(2, 2, modulus) == f4
    u3 = algebra.Pattern.full(3)
    assert (algebra.NilMatrix.elementary(u3, Field(2, 2, [1, 1, 1, 0]), 1, 3)
            == algebra.NilMatrix.elementary(u3, f4, 1, 3))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_sub_is_add_of_negation(p):
    f = field_make(p)
    for a in range(p):
        for b in range(p):
            assert f.sub(a, b) == f.add(a, f.neg(b)) == (a - b) % p


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
       st.integers(0, 80), st.integers(0, 80))
def test_additive_character_is_multiplicative_on_sums(pe, a, b):
    f = field_make(*pe)
    theta = AdditiveCharacter(f)
    x, y = a % f.q, b % f.q
    assert theta(f.add(x, y)) == theta(x) * theta(y)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_additive_character_nontrivial(p, e):
    f = field_make(p, e)
    theta = AdditiveCharacter(f)
    total = CyclotomicNumber.zero()
    for x in range(f.q):
        total = total + theta(x)
    assert total.is_zero()
    assert any(theta(x) != CyclotomicNumber.one() for x in range(f.q))


def test_additive_character_frozen_values():
    t2 = AdditiveCharacter(field_make(2))
    assert t2(0) == CyclotomicNumber.one()
    assert t2(1) == CyclotomicNumber.rational(-1)
    t3 = AdditiveCharacter(field_make(3))
    assert t3(1) == CyclotomicNumber.zeta(3)
    assert t3(2) == CyclotomicNumber.zeta(3, 2)
    # trace of the generator of F_4 is w + w^2 = 1
    f4 = field_make(2, 2)
    w = 2
    assert f4.add(w, f4.mul(w, w)) == 1
    assert AdditiveCharacter(f4)(w) == CyclotomicNumber.rational(-1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert len(cyclotomic_polynomial(8)) == 5  # degree phi(8) = 4


def test_cyclotomic_arithmetic():
    z4 = CyclotomicNumber.zeta(4)
    assert z4 * z4 == CyclotomicNumber.rational(-1)
    assert CyclotomicNumber.zeta(2) == CyclotomicNumber.rational(-1)
    half = CyclotomicNumber.rational(Fraction(1, 2))
    assert half + half == CyclotomicNumber.one()
    # conductor promotion: zeta_2 * zeta_3 has order 6
    prod = CyclotomicNumber.zeta(2) * CyclotomicNumber.zeta(3)
    assert root_of_unity_order(prod) == 6


def test_galois_examples():
    z4 = CyclotomicNumber.zeta(4)
    assert z4.galois(3) == -z4
    assert CyclotomicNumber.one(4).galois(3) == CyclotomicNumber.one()
    real8 = CyclotomicNumber.zeta(8) + CyclotomicNumber.zeta(8, 7)
    assert real8.galois(7) == real8
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(4).galois(2)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.sampled_from([3, 5, 7]))
def test_galois_is_ring_homomorphism(a0, a1, b0, b1, t):
    a = CyclotomicNumber(8, [Fraction(a0), Fraction(a1), Fraction(1),
                             Fraction(0)])
    b = CyclotomicNumber(8, [Fraction(b0), Fraction(0), Fraction(b1),
                             Fraction(1)])
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)


def test_galois_identity_when_t_is_one_mod_m():
    a = CyclotomicNumber.zeta(8) + CyclotomicNumber.rational(5, 8)
    assert a.galois(9) == a
    assert a.galois(1) == a


def test_prime_power_split_matches_trial_division():
    for n in range(-2, 400):
        primes = [d for d in range(2, n + 1)
                  if n % d == 0 and all(d % r for r in range(2, d))]
        if len(primes) != 1:
            with pytest.raises(ValueError, match="is not a prime power"):
                prime_power_split(n)
            continue
        p, k = prime_power_split(n)
        assert (p, p**k) == (primes[0], n)


def test_in_subfield():
    z4 = CyclotomicNumber.zeta(4)
    assert not in_subfield(z4, 1)
    assert in_subfield(CyclotomicNumber.rational(-1, 4), 1)
    # zeta_8^2 = zeta_4 lies in Q(zeta_4)
    assert in_subfield(CyclotomicNumber.zeta(8, 2), 2)
    assert not in_subfield(CyclotomicNumber.zeta(8), 2)
    assert in_subfield(CyclotomicNumber.zeta(8), 3)  # whole field
    assert in_subfield(CyclotomicNumber.zeta(9), 2)
    assert not in_subfield(CyclotomicNumber.zeta(9), 1)
    with pytest.raises(ValueError):
        in_subfield(CyclotomicNumber.zeta(6), 1)  # 6 is not a prime power
    assert in_subfield(CyclotomicNumber.rational(3), 1)  # conductor 1


def test_root_of_unity_order():
    assert root_of_unity_order(CyclotomicNumber.one()) == 1
    assert root_of_unity_order(CyclotomicNumber.rational(-1)) == 2
    assert root_of_unity_order(CyclotomicNumber.zeta(9, 3)) == 3
    assert root_of_unity_order(CyclotomicNumber.rational(2)) is None


def test_equality_is_canonical():
    a = CyclotomicNumber.zeta(4) - CyclotomicNumber.zeta(4)
    assert a.is_zero()
    # same value at different declared conductors
    assert CyclotomicNumber.one(4) == CyclotomicNumber.one(2)
    assert CyclotomicNumber.zeta(8, 2) == CyclotomicNumber.zeta(4)


# ---------------------------------------------------------------------------
# differential test against the Fraction-coefficient oracle

CONDUCTORS = [1, 2, 3, 4, 5, 8, 9, 12, 15, 25, 27, 105]
PRIME_POWER_CONDUCTORS = [1, 2, 3, 4, 5, 8, 9, 25, 27]
# p-power denominators and others; 105 makes lcm denominators large
DENOMINATORS = [1, 1, 1, 2, 3, 4, 5, 8, 9, 25, 27, 6, 7, 10, 12, 105]


def assert_canonical(x):
    assert len(x.nums) == len(cyclotomic_polynomial(x.m)) - 1
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def assert_same(x, want):
    """x (a CyclotomicNumber) equals want (a FractionCyclotomic) at the
    same conductor, coefficient by coefficient, and is canonical."""
    assert isinstance(x, CyclotomicNumber)
    assert_canonical(x)
    assert (x.m, x.coeffs) == (want.m, want.coeffs), (x, want)


def random_rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))


def random_pair(rng, m):
    """The same random element of Q(zeta_m) in both representations: a
    general element, a signed root of unity, a rational, or zero."""
    kind = rng.randrange(4)
    if kind == 0:
        want = FractionCyclotomic(
            m, [random_rational(rng) for _ in range(len(
                cyclotomic_polynomial(m)) - 1)])
    elif kind == 1:
        want = FractionCyclotomic.zeta(m, rng.randrange(-m, 2 * m))
        if rng.random() < 0.5:
            want = -want
    elif kind == 2:
        want = FractionCyclotomic.rational(random_rational(rng), m)
    else:
        want = FractionCyclotomic.zero(m)
    got = CyclotomicNumber(m, want.coeffs)
    assert_same(got, want)
    return got, want


def test_integer_numerators_match_fraction_oracle(rng):
    for m in CONDUCTORS:
        units = [t for t in range(1, 2 * m + 2) if gcd(t, m) == 1]
        for _ in range(12):
            (a, fa), (b, fb) = random_pair(rng, m), random_pair(rng, m)
            assert_same(a + b, fa + fb)
            assert_same(a - b, fa - fb)
            assert_same(-a, -fa)
            assert_same(a * b, fa * fb)
            r = random_rational(rng) * rng.choice([1, -1])
            assert_same(a.scale(r), fa.scale(r))
            assert_same(a.scale(int(r)), fa.scale(int(r)))
            big = m * rng.choice([1, 2, 3, 5])
            assert_same(a.promote(big), fa.promote(big))
            t = rng.choice(units)
            assert_same(a.galois(t), fa.galois(t))
            assert_same(a.conjugate(), fa.conjugate())
            assert a.is_zero() == fa.is_zero()
            assert a.is_rational() == fa.is_rational()
            if fa.is_rational():
                value = a.rational_value()
                assert type(value) is Fraction
                assert value == fa.rational_value()
                assert a == value
            else:
                with pytest.raises(ValueError):
                    a.rational_value()
            assert (a == b) == (fa == fb)
            # equality across conductors, and with plain rationals
            other = rng.choice(CONDUCTORS)
            c, fc = random_pair(rng, other)
            assert_same(a + c, fa + fc)
            assert_same(a * c, fa * fc)
            assert (a == c) == (fa == fc)
            assert a == a.promote(lcm(m, other))
            assert (a == 1) == (fa == 1) and (a == 0) == (fa == 0)
            assert (a == Fraction(1, 2)) == (fa == Fraction(1, 2))
            assert (a != b) == (fa != fb)
        for _ in range(3 if m < 100 else 1):
            x = CyclotomicNumber.zeta(m, rng.randrange(m))
            x = x.scale(rng.choice([1, -1]))
            fx = FractionCyclotomic(m, x.coeffs)
            assert root_of_unity_order(x) == root_of_unity_order(fx)
            a, fa = random_pair(rng, m)
            assert root_of_unity_order(a) == root_of_unity_order(fa)


def test_in_subfield_matches_fraction_oracle(rng):
    for m in PRIME_POWER_CONDUCTORS:
        top = 0 if m == 1 else prime_power_split(m)[1]
        for _ in range(8):
            a, fa = random_pair(rng, m)
            # also elements of the smaller fields, promoted to m
            if m > 1 and rng.random() < 0.5:
                p = prime_power_split(m)[0]
                small = p ** rng.randrange(top + 1)
                b, fb = random_pair(rng, small)
                a, fa = b.promote(m), fb.promote(m)
                assert_same(a, fa)
            for i in range(top + 1):
                assert in_subfield(a, i) == in_subfield(fa, i)


def test_canonical_form_of_constructed_numbers():
    assert CyclotomicNumber(3, [Fraction(2, 6), Fraction(-4, 6)]).nums \
        == (1, -2)
    x = CyclotomicNumber(3, [Fraction(1, 2), Fraction(1, 3)])
    assert (x.nums, x.den) == ((3, 2), 6)
    zero = CyclotomicNumber.rational(Fraction(0, 7), 5)
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
    half = CyclotomicNumber.rational(Fraction(1, 2), 4)
    assert ((half + half).nums, (half + half).den) == ((1, 0), 1)
    assert (half - half).den == 1 and (half.scale(0)).den == 1
    assert CyclotomicNumber.from_powers(5, [1] * 5).is_zero()
    assert CyclotomicNumber.from_powers(3, [2, 0, 1], Fraction(1, 2)) == \
        CyclotomicNumber.one() + \
        CyclotomicNumber.zeta(3, 2).scale(Fraction(1, 2))
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1),) * 2


# ---------------------------------------------------------------------------
# cross-checks against sympy, when it is installed


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_polynomial(m) == \
            tuple(int(c) for c in reversed(coeffs)), m


def test_irreducibility_matches_sympy():
    # every polynomial of degree 1..e_max over F_p with a nonzero leading
    # coefficient
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, e_max in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for e in range(1, e_max + 1):
            for low in itertools.product(range(p), repeat=e):
                for lead in range(1, p):
                    coeffs = low + (lead,)
                    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=p)
                    assert _is_irreducible(coeffs, p) == \
                        poly.is_irreducible, (p, coeffs)


def test_standard_moduli_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for (p, e), modulus in STANDARD_MODULI.items():
        poly = sympy.Poly(list(reversed(modulus)), x, modulus=p)
        assert poly.degree() == e and poly.is_monic and poly.is_irreducible
        assert field_make(p, e).modulus == modulus


# ---------------------------------------------------------------------------
# the exact division check raises VerificationFailed, also under python -O


def test_non_exact_division_raises():
    assert _zpoly_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(VerificationFailed, match="non-exact"):
        _zpoly_exact_div([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    assert algebra.VerificationFailed is VerificationFailed
    assert utchar.VerificationFailed is VerificationFailed


OPTIMIZED_SCRIPT = """
from utchar.scalars import VerificationFailed, _zpoly_exact_div
assert False, "assertions are enabled"
try:
    _zpoly_exact_div([1, 0, 1], [1, 1])
except VerificationFailed:
    print("raised")
"""


def test_exact_division_check_survives_optimized_mode(run_optimized):
    out = run_optimized(OPTIMIZED_SCRIPT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"]

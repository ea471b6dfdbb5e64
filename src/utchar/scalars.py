"""Exact scalars: finite fields F_q and cyclotomic numbers in Q(zeta_m).

Field elements are encoded as integers in [0, q): the polynomial
c_0 + c_1 x + ... + c_{e-1} x^{e-1} in the power basis of the modulus is
stored as sum(c_i * p**i).  Cyclotomic numbers carry exact rational
coefficients with respect to the basis 1, zeta, ..., zeta^(d-1) where d is
the degree of the m-th cyclotomic polynomial, stored as integer numerators
over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm


class VerificationFailed(AssertionError):
    """A mathematical check of a computed result did not hold."""


# ---------------------------------------------------------------------------
# finite fields


# standard irreducible moduli (coefficients low degree first) for q <= 64;
# prime fields always use the modulus x.
STANDARD_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, modulus, p):
    """(a * b) mod modulus over F_p; coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, modulus, p)[1]


def _poly_divmod(a, b, p):
    a = list(a)
    deg_b = len(_poly_trim(b)) - 1
    b = _poly_trim(b)
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(len(a) - deg_b, 0)
    while True:
        a = _poly_trim(a)
        if len(a) - 1 < deg_b:
            break
        shift = len(a) - 1 - deg_b
        factor = (a[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
    return quot, a


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_trim(_poly_divmod(a, b, p)[1])
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [(x - y) % p for x, y in zip(a, b)]


def _poly_powmod(base, exp, modulus, p):
    result = [1]
    base = _poly_divmod(base, modulus, p)[1]
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        exp >>= 1
    return result


def _is_irreducible(modulus, p):
    """Rabin's test: f of degree e is irreducible over F_p iff
    x^(p^e) = x mod f and gcd(x^(p^d) - x, f) = 1 for every proper divisor
    d of e."""
    coeffs = _poly_trim(modulus)
    e = len(coeffs) - 1
    if e < 1:
        return False
    x = [0, 1]

    def frobenius_gap(d):  # x^(p^d) - x mod f
        gap = _poly_sub(_poly_powmod(x, p**d, coeffs, p), x, p)
        return _poly_divmod(gap, coeffs, p)[1]

    if frobenius_gap(e):
        return False
    return all(len(_poly_gcd(frobenius_gap(d), coeffs, p)) == 1
               for d in range(1, e) if e % d == 0)


def _normal_modulus(p, e, modulus):
    """The modulus of F_{p^e} (the built-in one if modulus is None), reduced
    mod p with trailing zeros trimmed; ValueError unless p is prime, e >= 1
    and the degree is e."""
    try:
        prime = prime_power_split(p) == (p, 1)
    except ValueError:
        prime = False
    if not prime:
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("e must be >= 1")
    if modulus is None:
        if e == 1:
            modulus = (0, 1)
        elif (p, e) in STANDARD_MODULI:
            modulus = STANDARD_MODULI[(p, e)]
        else:
            raise ValueError(
                f"no built-in modulus for q = {p**e}; supply one explicitly")
    modulus = tuple(_poly_trim(c % p for c in modulus))
    if len(modulus) - 1 != e:
        raise ValueError("modulus degree must equal e")
    return modulus


class Field:
    """The finite field F_q with q = p**e elements, exact arithmetic on
    integer encodings.

    For e > 1, F_q^x is cyclic of order n = q - 1; g is its generator of
    least encoding.  exp[k] = g^k for 0 <= k < 2n, log inverts
    exp on F_q^x, and log 0 = 2n, where exp is 0 on [2n, 4n]: so mul and neg
    add logs with no zero branch.  For odd p, zech[k] = log(1 + g^k)
    (Zech's logarithm) turns add into g^i + g^j = g^(i + zech[j - i]); for
    p = 2, add is XOR on the encodings."""

    def __init__(self, p, e=1, modulus=None):
        modulus = _normal_modulus(p, e, modulus)
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._trace_table = None
        if e > 1:
            self._build_logs()

    def _build_logs(self):
        p, q, n = self.p, self.q, self.q - 1
        for g in range(2, q):
            step = [g // p**i % p for i in range(self.e)]
            c, powers = [1], [1]
            for _ in range(n - 1):
                c = _poly_mulmod(c, step, self.modulus, p)
                x = sum(ci * p**i for i, ci in enumerate(c))
                if x == 1:
                    break
                powers.append(x)
            else:  # g^k != 1 for 0 < k < n: g generates F_q^x
                break
        else:
            raise VerificationFailed(f"F_{q}^x has no element of order {n}")
        self._exp = powers * 2 + [0] * (2 * n + 1)
        log = [2 * n] * q
        for k, x in enumerate(powers):
            log[x] = k
        self._log = log
        self._log_minus_one = log[p - 1]
        # 1 + x changes only the constant digit of x
        self._zech = ([log[x - x % p + (x + 1) % p] for x in powers]
                      if p != 2 else None)

    # -- arithmetic on encodings

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return self._exp[self._log[a] + self._log_minus_one]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        if not a:
            return self.neg(b)
        # a - b = g^la + g^(la + k) = g^(la + zech[k]) for
        # k = log b + log(-1) - la, brought into zech's range (-n, n)
        la = self._log[a]
        k = self._log[b] + self._log_minus_one - la
        if k >= self.q - 1:
            k -= self.q - 1
        return self._exp[la + self._zech[k]]

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k):
        result, base = 1, a
        k = int(k)
        if k < 0:
            base = self.inv(a)
            k = -k
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def from_int(self, k):
        """Embed the rational integer k via k * 1."""
        return k % self.p

    def trace(self, a):
        """Absolute trace F_q -> F_p, returned as an integer in [0, p)."""
        if self.e == 1:
            return a % self.p
        if self._trace_table is None:
            table = []
            for x in range(self.q):
                t, y = 0, x
                for _ in range(self.e):
                    t = self.add(t, y)
                    y = self.pow(y, self.p)
                table.append(t)
            self._trace_table = table
        return self._trace_table[a]

    def prime_basis(self):
        """Encodings of the F_p-basis 1, x, ..., x^(e-1) of F_q."""
        return [self.p**i for i in range(self.e)]

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) ==
                    (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return Field(p, e, modulus)


def field_make(p, e=1, modulus=None):
    """Construct (and cache) the field F_{p^e} with a verified modulus; one
    field per normal form of the modulus."""
    return _cached_field(p, e, _normal_modulus(p, e, modulus))


# ---------------------------------------------------------------------------
# cyclotomic numbers


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Monic integer coefficients of Phi_m, low degree first."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    # x^m - 1 divided by Phi_d for all proper divisors d of m
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_polynomial(d)
            num = _zpoly_exact_div(num, list(phi_d))
    return tuple(num)


def _zpoly_exact_div(a, b):
    """Exact division of integer polynomials (low degree first)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coef = a[shift + len(b) - 1] // b[-1]
        out[shift] = coef
        if coef:
            for i, bi in enumerate(b):
                a[shift + i] -= coef * bi
    if any(a):
        raise VerificationFailed("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi_tail(m):
    """The nonzero (i, c_i) of Phi_m below its leading term."""
    phi = cyclotomic_polynomial(m)
    return [(i, c) for i, c in enumerate(phi[:-1]) if c]


def _reduce_mod_phi(m, raw):
    """Reduce the integer coefficient list raw (powers of zeta_m) mod
    Phi_m, first mod x^m - 1, which Phi_m divides.  Phi_m is monic over Z,
    so the result is an integer tuple of length deg Phi_m."""
    d = len(cyclotomic_polynomial(m)) - 1
    if len(raw) <= d:
        return tuple(raw) + (0,) * (d - len(raw))
    raw = list(raw)
    for k in range(len(raw) - 1, m - 1, -1):
        raw[k - m] += raw[k]
    tail = _phi_tail(m)
    for k in range(min(len(raw), m) - 1, d - 1, -1):
        c = raw[k]
        if c:
            base = k - d
            for i, f in tail:
                raw[base + i] -= c * f
    return tuple(raw[:d])


def _ratio(value):
    """(numerator, denominator) of a rational value."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def _make(m, nums, den):
    """The CyclotomicNumber sum_i nums[i] zeta_m^i / den, for a tuple nums
    already reduced mod Phi_m and den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
    c = object.__new__(CyclotomicNumber)
    c.m, c.nums, c.den = m, nums, den
    return c


class CyclotomicNumber:
    """An exact element of Q(zeta_m): integer numerators nums of its
    coefficients over 1, zeta, ..., zeta^(d-1), d = deg Phi_m, over one
    denominator den > 0 with gcd(den, *nums) == 1 (zero has den 1).  That
    form is unique, so at one conductor equality is tuple equality; across
    conductors both sides are promoted to the lcm first."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m, coeffs):
        """coeffs: the d rational coefficients over the power basis."""
        ratios = [_ratio(c) for c in coeffs]
        if len(ratios) != len(cyclotomic_polynomial(m)) - 1:
            raise ValueError("coefficient vector has wrong length")
        den = lcm(*(d for _, d in ratios))
        self.m = m
        self.nums = tuple([n * (den // d) for n, d in ratios])
        self.den = den

    @property
    def coeffs(self):
        """The coefficients as Fractions (a read-only view)."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @classmethod
    def rational(cls, value, m=1):
        n, d = _ratio(value)
        zeros = (0,) * (len(cyclotomic_polynomial(m)) - 2)
        return _make(m, (n,) + zeros, d)

    @classmethod
    def zeta(cls, m, k=1):
        k %= m
        return _make(m, _reduce_mod_phi(m, [0] * k + [1]), 1)

    @classmethod
    def from_powers(cls, m, counts, scale=1):
        """scale * sum_t counts[t] zeta_m^t, for integer counts: one
        reduction mod Phi_m."""
        n, d = _ratio(scale)
        return _make(m, _reduce_mod_phi(m, [c * n for c in counts]), d)

    @classmethod
    def zero(cls, m=1):
        return cls.rational(0, m)

    @classmethod
    def one(cls, m=1):
        return cls.rational(1, m)

    def promote(self, big_m):
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError("can only promote to a multiple conductor")
        step = big_m // self.m
        raw = [0] * ((len(self.nums) - 1) * step + 1)
        raw[::step] = self.nums
        return _make(big_m, _reduce_mod_phi(big_m, raw), self.den)

    def _pair(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.rational(other)
        if self.m == other.m:
            return self, other
        m = lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a.den == b.den:
            return _make(a.m, tuple(map(int.__add__, a.nums, b.nums)), a.den)
        da, db = a.den, b.den
        return _make(a.m, tuple([x * db + y * da
                                 for x, y in zip(a.nums, b.nums)]), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a.den == b.den:
            return _make(a.m, tuple(map(int.__sub__, a.nums, b.nums)), a.den)
        da, db = a.den, b.den
        return _make(a.m, tuple([x * db - y * da
                                 for x, y in zip(a.nums, b.nums)]), da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.m, tuple([-x for x in self.nums]), self.den)

    def __mul__(self, other):
        a, b = self._pair(other)
        raw = [0] * (2 * len(a.nums) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums, i):
                    if y:
                        raw[j] += x * y
        return _make(a.m, _reduce_mod_phi(a.m, raw), a.den * b.den)

    __rmul__ = __mul__

    def scale(self, rational):
        n, d = _ratio(rational)
        return _make(self.m, tuple([x * n for x in self.nums]), self.den * d)

    def __pow__(self, k):
        result = CyclotomicNumber.one(self.m)
        base = self
        for _ in range(int(k)):
            result = result * base
        return result

    def galois(self, t):
        """Image under zeta_m -> zeta_m**t; t must be coprime to m."""
        if gcd(t, self.m) != 1:
            raise ValueError(f"t = {t} is not coprime to m = {self.m}")
        raw = [0] * self.m
        for i, c in enumerate(self.nums):
            raw[(i * t) % self.m] += c
        return _make(self.m, _reduce_mod_phi(self.m, raw), self.den)

    def conjugate(self):
        if self.m <= 2:
            return self
        return self.galois(self.m - 1)

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            try:
                n, d = _ratio(other)
            except (TypeError, ValueError):
                return NotImplemented
            return (self.den == d and self.nums[0] == n
                    and not any(self.nums[1:]))
        a, b = self._pair(other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None

    def __repr__(self):
        return f"CyclotomicNumber(m={self.m}, coeffs={list(self.coeffs)})"


def prime_power_split(n):
    """(p, k) with n = p^k for a prime p and k >= 1; ValueError if n is not
    a prime power (n < 2 included).  The least divisor d >= 2 of n is
    prime."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    m, k = n, 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, k


def in_subfield(a, i):
    """True iff a lies in Q(zeta_{p^i}); the conductor of a must be 1 or a
    prime power p^k with i <= k.  Decided by the Galois test with
    zeta -> zeta^(1 + p^i)."""
    if a.m == 1:
        return True
    p, k = prime_power_split(a.m)
    if i < 0 or i > k:
        raise ValueError(f"need 0 <= i <= {k}")
    if i == 0:
        return a.is_rational()
    if i >= k:
        return True
    return a.galois(1 + p**i) == a


def root_of_unity_order(a):
    """Multiplicative order of a as a root of unity, or None."""
    if a.is_zero():
        return None
    power = a
    for d in range(1, 2 * a.m + 1):
        if power == 1:
            return d
        power = power * a
    return None


class AdditiveCharacter:
    """The fixed nontrivial character x -> zeta_p^Tr(x) of F_q^+."""

    def __init__(self, field):
        self.field = field
        p = field.p
        self._powers = [CyclotomicNumber.zeta(p, t) for t in range(p)]
        self.conductor = p

    def __call__(self, x):
        return self._powers[self.field.trace(x)]

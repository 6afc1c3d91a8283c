"""Exact number-theoretic primitives.

Dedekind sums (by reciprocity, in O(log c) integer steps, as the integer
12c*s(d, c) with one Fraction built only for the public value), Jacobi
symbols and CRT over plain integers/fractions, plus :class:`ExactScalar`, a
decidable algebra for the constants that appear in half-integral-weight
transformation laws: every such constant is a product
``r * sqrt(s) * e^(2*pi*i*u)`` with rational r > 0, squarefree integer s >= 1
and rational phase u in [0, 1).  That monomial form is a normal form, so
equality of represented complex numbers is componentwise equality.

All functions are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "NonCoprimeModuli",
    "EvenInput",
    "dedekind_sum",
    "jacobi",
    "crt",
    "prime_factors",
    "is_prime",
    "ExactScalar",
    "epsilon_d",
]


class NonCoprimeModuli(Exception):
    """CRT moduli must be pairwise coprime."""


class EvenInput(Exception):
    """The quarter-period sign epsilon_d is only defined for odd d."""


def dedekind_sum(d: int, c: int) -> Fraction:
    """The Dedekind sum s(d, c) = sum_{r=1}^{c-1} ((r/c)) ((d r/c)) as an
    exact rational, for any integer d and c >= 1 (0 for c = 1): the integer
    12c*s(d, c) of :func:`_dedekind_12c` over 12c."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    return Fraction(_dedekind_12c(d, c), 12 * c)


def _dedekind_12c(d: int, c: int) -> int:
    """12c*s(d, c), an integer for every integer d and c >= 1 (Rademacher
    and Grosswald, *Dedekind Sums*, 1972); c is not checked.  Multiplier
    phases use it as a numerator over a multiple of 12c.

    With g = gcd(d, c) the sum equals s(d/g, c/g), so the arguments are
    reduced to h = (d/g) mod k, k = c/g first.  Reciprocity,

        s(h, k) = (h^2 + k^2 + 1 - 3hk) / (12hk) - s(k mod h, h),

    then runs along the Euclidean remainders k = r_0 > h = r_1 > ... > r_n = 1
    with quotients a_i.  Unrolled, the sawtooth terms telescope to

        12k s(h, k) = h + t + k (sum_i (-1)^(i+1) a_i - 3 [n odd]),

    t being the Bezout coefficient with t h = 1 (mod k) that the same
    Euclidean steps produce, and 12c s(d, c) is g times that.  The work is
    O(log c) integer steps.
    """
    g = gcd(d, c)
    k = c // g
    h = (d // g) % k
    # r_{i-1}, r_i; t_{i-1}, t_i with r_i = t_i h (mod k); sign = (-1)^i
    r0, r1, t0, t1 = k, h, 0, 1
    alternating, sign = 0, 1
    while r1:
        a, r = divmod(r0, r1)
        alternating += sign * a
        sign = -sign
        r0, r1, t0, t1 = r1, r, t1, t0 - a * t1
    if sign < 0:
        alternating -= 3
    return g * (h + t0 + k * alternating)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol when n is
    an odd prime."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt(residues) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; returns the
    unique solution in [0, prod m_i)."""
    x, modulus = 0, 1
    for r, m in residues:
        if m < 1:
            raise ValueError("moduli must be positive")
        if gcd(modulus, m) != 1:
            raise NonCoprimeModuli(f"moduli {modulus} and {m} share a factor")
        # x' = x (mod modulus), x' = r (mod m)
        inv = pow(modulus % m, -1, m) if m > 1 else 0
        x = x + modulus * (((r - x) * inv) % m)
        modulus *= m
    return x % modulus


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """True when n is a prime: n >= 2 and its own only prime factor."""
    return n >= 2 and prime_factors(n) == {n: 1}


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = g*g*s with s squarefree; returns (g, s)."""
    g, s = 1, 1
    for p, e in prime_factors(n).items():
        g *= p ** (e // 2)
        if e % 2:
            s *= p
    return g, s


def _exact(x) -> Fraction:
    """x as a Fraction; a float or complex, which would only approximate
    the intended value, raises TypeError."""
    if isinstance(x, (float, complex)):
        raise TypeError(f"ExactScalar needs exact components, got {x!r}")
    return Fraction(x)


_ONE = Fraction(1)


@dataclass(frozen=True)
class ExactScalar:
    """A nonzero complex constant ``r * sqrt(s) * e^(2*pi*i*u)`` in normal
    form: r rational > 0, s squarefree integer >= 1, u rational in [0, 1).

    The constructor normalizes exact input: negative r folds into the
    phase, square parts of s fold into r, u is reduced mod 1.  A float or
    complex component raises TypeError, and a radicand that is not an
    integer raises ValueError.  Components already in normal form (a
    Fraction r > 0, the int s = 1, a Fraction u in [0, 1)) are kept as
    they are.  Products and powers of unit phases (r = s = 1) are computed
    on u's integer numerator mod its denominator.
    """

    r: Fraction
    s: int = 1
    u: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        r, s, u = self.r, self.s, self.u
        if (
            type(s) is int
            and s == 1
            and type(r) is Fraction
            and type(u) is Fraction
            and r.numerator > 0
            and 0 <= u.numerator < u.denominator
        ):
            return  # already in normal form
        r = _exact(r)
        u = _exact(u)
        if type(s) is not int:
            s = _exact(s)
            if s.denominator != 1:
                raise ValueError("radicand must be a positive integer")
            s = s.numerator
        if r == 0:
            raise ValueError("ExactScalar cannot represent zero")
        if s < 1:
            raise ValueError("radicand must be a positive integer")
        if r < 0:
            r = -r
            u += Fraction(1, 2)
        g, s = _squarefree_split(s)
        object.__setattr__(self, "r", r * g)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "u", u % 1)

    # ------------------------------------------------------------ builders

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls(_ONE)

    @classmethod
    def unit_phase(cls, u) -> "ExactScalar":
        """The root of unity e^(2*pi*i*u)."""
        return cls(_ONE, 1, u)

    @classmethod
    def minus_one_pow(cls, x) -> "ExactScalar":
        """(-1)**x for rational x, read as e^(pi*i*x)."""
        return cls.unit_phase(_exact(x) / 2)

    @classmethod
    def sqrt_of(cls, x) -> "ExactScalar":
        """The principal square root of a positive rational."""
        x = _exact(x)
        if x <= 0:
            raise ValueError("sqrt_of needs a positive rational")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(Fraction(1, x.denominator), x.numerator * x.denominator)

    # ------------------------------------------------------------- algebra

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.s == other.s == 1 and self.r == other.r == 1:
            u, v = self.u, other.u
            n = u.numerator * v.denominator + v.numerator * u.denominator
            return _unit(n, u.denominator * v.denominator)
        return ExactScalar(self.r * other.r, self.s * other.s, self.u + other.u)

    def __pow__(self, e: int) -> "ExactScalar":
        if not isinstance(e, int):
            return NotImplemented
        if self.s == 1 and self.r == 1:
            return _unit(self.u.numerator * e, self.u.denominator)
        if e < 0:
            # 1/(r sqrt(s)) = sqrt(s)/(r s)
            inv = ExactScalar(1 / (self.r * self.s), self.s, -self.u)
            return inv ** (-e)
        r = self.r**e * Fraction(self.s) ** (e // 2)
        s = self.s if e % 2 else 1
        return ExactScalar(r, s, self.u * e)

    def __complex__(self) -> complex:
        import cmath

        mag = float(self.r) * float(self.s) ** 0.5
        return mag * cmath.exp(2j * cmath.pi * float(self.u))

    def __str__(self) -> str:
        parts = []
        if self.r != 1 or (self.s == 1 and self.u == 0):
            parts.append(str(self.r))
        if self.s != 1:
            parts.append(f"sqrt({self.s})")
        if self.u != 0:
            parts.append(f"e(2*pi*i*{self.u})")
        return "*".join(parts)


def _unit(n: int, d: int) -> ExactScalar:
    """The unit phase e^(2*pi*i*n/d) for integers n and d >= 1, reduced
    mod 1 on the integer numerator."""
    return ExactScalar(_ONE, 1, Fraction(n % d, d))


def epsilon_d(d: int) -> ExactScalar:
    """The quarter-period sign: 1 for d = 1 (mod 4), i for d = 3 (mod 4)."""
    if d % 2 == 0:
        raise EvenInput("epsilon_d needs odd d")
    if d % 4 == 1:
        return ExactScalar.one()
    return ExactScalar.unit_phase(Fraction(1, 4))

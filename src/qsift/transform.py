"""Congruence-subgroup bookkeeping: level constants, good progressions,
matrix decompositions, multiplier systems, orbit coverage, and the cusp
identities (the condition on Q, exact leading terms and their powers).

Everything here is exact scalar algebra over :class:`~qsift.arith.ExactScalar`
and plain integers; no series arithmetic is involved.  Phases that the
transformation laws write as zeta_m or (-1) raised to a rational exponent x
are read as e^(2*pi*i*x/m) and e^(pi*i*x) respectively; the constancy and
cusp identity suites validate that reading.  Every multiplier phase is an
integer numerator over 24c (48c for omega with d even), since 12c*s(d, c)
is an integer; a Fraction or ExactScalar is built only for a result.

Each kind of progression t (mod m) is one linear form alpha + beta*t, the
argument of its quadratic symbol:

* kind ``"f"`` -- the mock theta function f(q): 1 - 24t;
* kind ``"omega"`` -- omega(q): -3t - 2;
* kind ``"eta"`` -- an eta-quotient with weight data B: -B - 24t.

The progression is *good* when some odd prime p | m has (alpha + beta*t | p)
= -1, which kills the non-holomorphic support.  A unit a prime to beta
multiplies the form by a^2, moving t to a^2 t + alpha(a^2 - 1)/beta; the
goodness test, its refinement, the unit images, the orbits (images of the
units mod |beta|*m, for every kind), their coverage and the shifts of the
constancy check are all read off (alpha, beta).
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd

from .arith import (
    ExactScalar,
    _dedekind_12c,
    crt,
    dedekind_sum,
    is_prime,
    jacobi,
    prime_factors,
)

__all__ = [
    "BadMatrix",
    "BadUnit",
    "BadQ",
    "ParityMismatch",
    "NonInvertibleA",
    "BDivisibleBySix",
    "UnimodularMatrix",
    "Progression",
    "UpperDecomposition",
    "CuspDecomposition",
    "level_constant",
    "level_constant_eta",
    "q_divisor",
    "is_good",
    "good_residues",
    "refine_to_good",
    "decompose_upper",
    "t_image",
    "orbit",
    "coverage_target",
    "mock_multiplier",
    "omega_multiplier_even_c",
    "omega_multiplier_even_d",
    "eta_multiplier",
    "constancy_check",
    "phase_cancellation_check",
    "cusp_decompose",
    "CUSP_Q_PRIME_TO",
    "cusp_q_ok",
    "cusp_half_leading",
    "cusp_one_leading",
    "cusp_identity",
    "good_progression_support_vanishes",
    "eta_numeric",
    "eta_transform_defect",
    "random_unimodular",
    "SuiteResult",
    "identity_suites",
    "DEFAULT_SEED",
]


class BadMatrix(Exception):
    """Matrix outside the domain of the requested operation."""


class BadUnit(Exception):
    """The unit a violates the coprimality needed by the progression map."""


class BadQ(Exception):
    """Q violates the gcd constraint of the cusp expansion."""


class ParityMismatch(Exception):
    """The multiplier variant requires the other parity of c/d."""


class NonInvertibleA(Exception):
    """decompose_upper needs gcd(a, m) = 1."""


class BDivisibleBySix(Exception):
    """q_divisor is only defined when 6 does not divide B."""


@dataclass(frozen=True)
class UnimodularMatrix:
    """An integer matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise BadMatrix(f"determinant of {self.entries()} is not 1")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def __str__(self) -> str:
        return f"({self.a} {self.b}; {self.c} {self.d})"


@dataclass(frozen=True)
class Progression:
    """An arithmetic progression t (mod m), t normalized into [0, m)."""

    m: int
    t: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "t", self.t % self.m)


@dataclass(frozen=True)
class UpperDecomposition:
    """Witness of (1 lam; 0 m) A = A_lam (1 lam'; 0 m)."""

    a_lambda: UnimodularMatrix
    lambda_prime: int


@dataclass(frozen=True)
class CuspDecomposition:
    """Witness of (1 lam; 0 Q)(1 0; c 1) = C (1 lam*; 0 Q/d) (d 0; 0 1)."""

    d_lambda: int
    lambda_star: int
    c_matrix: UnimodularMatrix


# --------------------------------------------------------------- constants


def level_constant(m: int) -> int:
    """The level attached to progressions mod m on the mock side:
    2m, 8m, 6m or 24m according to gcd(m, 6) = 1, 2, 3, 6."""
    if m < 1:
        raise ValueError("m must be positive")
    return {1: 2, 2: 8, 3: 6, 6: 24}[gcd(m, 6)] * m


def level_constant_eta(m: int) -> int:
    """The eta-quotient variant: m, 8m, 3m or 24m by gcd(m, 6)."""
    if m < 1:
        raise ValueError("m must be positive")
    return {1: 1, 2: 8, 3: 3, 6: 24}[gcd(m, 6)] * m


def q_divisor(m: int, B: int) -> int:
    """The divisor of m that survives the unit action for weight data B:
    with m = 2^r 3^s m', gcd(m', 6) = 1, this is m' / 2^r m' / 3^s m'
    according to gcd(B, 6) = 1 / 2 / 3.  Requires 6 not dividing B."""
    if m < 1:
        raise ValueError("m must be positive")
    return _surviving_divisor(m, *_eta_form(B))


# ------------------------------------------------------- good progressions


def _linear_form(kind: str, B: int | None = None) -> tuple[int, int]:
    """(alpha, beta) with alpha + beta*t the symbol argument of a progression
    t of the kind, the argument that a unit a multiplies by a^2."""
    if kind == "f":
        return 1, -24
    if kind == "omega":
        return -2, -3
    if kind == "eta":
        if B is None:
            raise ValueError("kind 'eta' needs B")
        return _eta_form(B)
    raise ValueError(f"unknown kind {kind!r}")


def _eta_form(B: int) -> tuple[int, int]:
    """(alpha, beta) of kind "eta" for weight data B."""
    return -B, -24


def _surviving_divisor(m: int, alpha: int, beta: int) -> int:
    """m stripped of each prime in {2, 3} that divides beta but not alpha:
    the unit action moves t freely along those primes.  Raises
    BDivisibleBySix when 6 | alpha, which only weight data B can give."""
    if alpha % 6 == 0:
        raise BDivisibleBySix(f"B={-alpha}")
    for prime in (2, 3):
        if beta % prime == 0 and alpha % prime:
            while m % prime == 0:
                m //= prime
    return m


def is_good(p: Progression, kind: str) -> bool:
    """True when some odd prime divisor of m certifies the quadratic
    non-residue condition that makes the progression good.

    The even prime can never certify: the relevant square condition is
    always solvable mod 2, so only odd p | m are consulted.
    """
    alpha, beta = _linear_form(kind)
    arg = alpha + beta * p.t
    return any(
        jacobi(arg, q) == -1 for q in prime_factors(p.m) if q % 2 == 1
    )


def good_residues(m: int, kind: str) -> list[int]:
    """The residues t with t (mod m) good, ascending.  For m = 1 this is
    [0]: the one progression is the whole function, which callers checking
    every good residue (the cusp identities) check too."""
    if m < 1:
        raise ValueError("m must be positive")
    _linear_form(kind)  # ValueError for an unknown kind, or "eta" without B
    if m == 1:
        return [0]
    return [t for t in range(m) if is_good(Progression(m, t), kind)]


def refine_to_good(p: Progression, kind: str) -> Progression:
    """Replace a non-good progression by a good sub-progression.

    Searches primes q >= 5 with q coprime to m, and non-residues x mod q in
    increasing order; the candidate (mq, T) with T = t (mod m) and
    alpha + beta*T = x (mod q) is verified with :func:`is_good` before being
    returned (divisibility edge cases can void the construction, so
    goodness is never assumed).  Good input is returned unchanged.
    """
    if is_good(p, kind):
        return p
    alpha, beta = _linear_form(kind)
    q = 5
    while q < 1000:
        if is_prime(q) and p.m % q != 0:
            for x in range(2, q):
                if jacobi(x, q) != -1:
                    continue
                res = ((x - alpha) * pow(beta, -1, q)) % q
                t_new = crt([(p.t, p.m), (res, q)])
                candidate = Progression(p.m * q, t_new)
                if is_good(candidate, kind):
                    return candidate
        q += 2
    raise RuntimeError(f"no good refinement found for {p}")


# ------------------------------------------------------------ matrix moves


def decompose_upper(A: UnimodularMatrix, m: int, lam: int) -> UpperDecomposition:
    """Pass (1 lam; 0 m) through A: returns A_lam and lam' in [0, m) with
    (1 lam; 0 m) A = A_lam (1 lam'; 0 m), where a*lam' = b + d*lam (mod m).

    Integrality of A_lam's upper-right entry needs m | c (automatic for the
    congruence subgroups this is used with); gcd(a, m) = 1 is required to
    solve for lam'.
    """
    if not 0 <= lam < m:
        raise ValueError("need 0 <= lam < m")
    lam_p, *a_lam = _pass_upper(*A.entries(), m, lam, _inverse_of_a(A.a, m))
    return UpperDecomposition(UnimodularMatrix(*a_lam), lam_p)


def _inverse_of_a(a: int, m: int) -> int:
    """a^(-1) mod m, which decompose_upper needs to solve for lam'."""
    if gcd(a, m) != 1:
        raise NonInvertibleA(f"gcd({a}, {m}) != 1")
    return pow(a, -1, m)


def _pass_upper(
    a: int, b: int, c: int, d: int, m: int, lam: int, a_inv: int
) -> tuple[int, int, int, int, int]:
    """(lam', a', b', c', d') with (1 lam; 0 m)(a b; c d) = (a' b'; c' d')
    (1 lam'; 0 m), a_inv being a^(-1) mod m.  BadMatrix unless the new
    entries are integers of determinant 1."""
    lam_p = a_inv * (b + d * lam) % m
    num = -lam_p * c * lam - lam_p * a + b + d * lam
    if num % m:
        raise BadMatrix("entries do not divide through; need m | c")
    a2, b2, c2, d2 = a + c * lam, num // m, m * c, d - c * lam_p
    if a2 * d2 - b2 * c2 != 1:
        raise BadMatrix(f"determinant of {(a2, b2, c2, d2)} is not 1")
    return lam_p, a2, b2, c2, d2


def t_image(a: int, p: Progression, kind: str, B: int | None = None) -> int:
    """Image of the progression residue t under the unit a: the t' with
    alpha + beta*t' = a^2 (alpha + beta*t), that is

        t' = a^2 t + alpha (a^2 - 1)/beta    (mod m),

    which needs gcd(a, beta) = 1 (gcd(a, 6) = 1 for kinds "f" and "eta",
    3 not dividing a for kind "omega").  That coprimality makes beta
    divide a^2 - 1, so the correction term is an integer exactly.
    """
    alpha, beta = _linear_form(kind, B)
    if gcd(a, beta) != 1:
        raise BadUnit(f"gcd({a}, {abs(beta)}) != 1")
    return _image(alpha, beta, a * a, p)


def _image(alpha: int, beta: int, aa: int, p: Progression) -> int:
    """t_image for a unit with square aa (any aa = 1 mod beta)."""
    return (aa * p.t + alpha * (aa - 1) // beta) % p.m


def orbit(p: Progression, kind: str, B: int | None = None) -> set[int]:
    """All residues t_image(a, ...) as a runs over the units mod |beta|*m,
    the a in 1..|beta|*m prime to beta*m, for every kind (the units mod 24m
    for kinds "f" and "eta", mod 3m for kind "omega").

    The image depends on a only through a^2 mod |beta|*m, so that window
    exhausts the orbit; each distinct square is mapped once.
    """
    alpha, beta = _linear_form(kind, B)
    return {_image(alpha, beta, aa, p) for aa in _unit_squares(abs(beta) * p.m)}


@lru_cache(maxsize=256)
def _unit_squares(window: int) -> tuple[int, ...]:
    """The distinct squares of the units mod window, once per window."""
    return tuple({a * a % window for a in range(1, window + 1) if gcd(a, window) == 1})


def coverage_target(p: Progression, kind: str, B: int | None = None) -> set[int]:
    """The residues {t + j*Q mod m} that the unit orbit is guaranteed to
    cover, Q being m stripped of each prime in {2, 3} that divides beta but
    not alpha (see :func:`q_divisor`; 6 | B raises BDivisibleBySix)."""
    m = p.m
    q = _surviving_divisor(m, *_linear_form(kind, B))
    return {(p.t + j * q) % m for j in range(m // q)}


# ------------------------------------------------------ multiplier systems


def mock_multiplier(A: UnimodularMatrix) -> ExactScalar:
    """The root of unity in the weight-1/2 transformation of the completed
    mock theta function f under (a b; c d) with c > 0 even:

        i^(-1/2) e^(-pi i s(-d,c)) (-1)^((c+1+ad)/2)
            e^(2 pi i (-(a+d)/24c - a/4 + 3dc/8))

    with i^(-1/2) = e^(-2 pi i / 8); the 24th power is always 1.
    """
    return ExactScalar.unit_phase(Fraction(_mock_phase(*A.entries()), 24 * A.c))


def _mock_phase(a: int, b: int, c: int, d: int) -> int:
    """The integer N with mock_multiplier((a b; c d)) = e^(2 pi i N/24c)."""
    if c <= 0 or c % 2:
        raise BadMatrix("need c > 0 and c even")
    # 24c (-1/8 - s(-d,c)/2 + (c+1+ad)/4 - (a+d)/24c - a/4 + 3dc/8)
    return (
        -3 * c
        - _dedekind_12c(-d, c)
        + 6 * c * (c + 1 + a * d)
        - (a + d)
        - 6 * c * a
        + 9 * d * c * c
    )


def omega_multiplier_even_c(A: UnimodularMatrix) -> ExactScalar:
    """The omega-side multiplier for matrices with c > 0 even:

        (-i)^(1/2) (-1)^((a-1)/2) e^(-pi i s(-d, c/2))
            e^(2 pi i (3ab/4 - (a+d)/12c))
    """
    return ExactScalar.unit_phase(
        Fraction(_omega_even_c_phase(*A.entries()), 24 * A.c)
    )


def _omega_even_c_phase(a: int, b: int, c: int, d: int) -> int:
    """The integer N with omega_multiplier_even_c((a b; c d)) =
    e^(2 pi i N/24c)."""
    if c <= 0:
        raise BadMatrix("need c > 0")
    if c % 2:
        raise ParityMismatch("this variant needs c even")
    # 24c (-1/8 + (a-1)/4 - s(-d,c/2)/2 + 3ab/4 - (a+d)/12c), with
    # 24c s(-d,c/2)/2 = 2 * 12(c/2) s(-d,c/2)
    return (
        -3 * c
        + 6 * c * (a - 1)
        - 2 * _dedekind_12c(-d, c // 2)
        + 18 * a * b * c
        - 2 * (a + d)
    )


def omega_multiplier_even_d(A: UnimodularMatrix) -> ExactScalar:
    """The omega-side multiplier for matrices with c > 0 and d even:

        i^(1/2) (-1)^((32a-d)/24c) e^(-pi i s(-d/2, c))
            e^(-(pi i/2)(2a + b - 3 - 3ab + 3a/c))

    (-1) to a rational power x is read as e^(pi i x).
    """
    a, b, c, d = A.entries()
    if c <= 0:
        raise BadMatrix("need c > 0")
    if d % 2:
        raise ParityMismatch("this variant needs d even")
    # 48c (1/8 + (32a-d)/48c - s(-d/2,c)/2 - (2a+b-3-3ab)/4 - 3a/4c)
    numerator = (
        6 * c
        + 32 * a
        - d
        - 2 * _dedekind_12c(-(d // 2), c)
        - 12 * c * (2 * a + b - 3 - 3 * a * b)
        - 36 * a
    )
    return ExactScalar.unit_phase(Fraction(numerator, 48 * c))


def eta_multiplier(A: UnimodularMatrix) -> ExactScalar:
    """The root of unity nu(A) = exp((pi i/12)((a+d)/c - 12 s(d,c))) in
    eta((az+b)/(cz+d)) = nu(A) sqrt(-i(cz+d)) eta(z), for c > 0.  The
    z-dependent automorphy factor is excluded."""
    a, _, c, d = A.entries()
    if c <= 0:
        raise BadMatrix("need c > 0")
    # 24c ((a+d)/24c - s(d,c)/2)
    return ExactScalar.unit_phase(Fraction(a + d - _dedekind_12c(d, c), 24 * c))


# ------------------------------------------------------------- identities


# Per kind, the factor taking level_constant(m) to the level of the
# constancy check, and the multiplier whose phase numerator (over 24c) it uses.
_CONSTANCY_MULTIPLIER = {"f": (1, _mock_phase), "omega": (2, _omega_even_c_phase)}


def constancy_check(A: UnimodularMatrix, p: Progression, kind: str) -> set[ExactScalar]:
    """The set of combined scalars, over lam in [0, m), of

        w(A_lam) zeta_m^(-lam s) zeta_m^(lam' s_A),

    with the shifts s = (alpha + beta*t)/beta and s_A the same at t_A =
    t_image(a, ...): t - 1/24 and the mock multiplier w for kind "f",
    t + 2/3 and the even-c omega multiplier for kind "omega".  The
    transformation theory predicts a singleton whose 24m-th power is 1.
    Every factor is a unit phase with an integer numerator over
    D = 24c(A_lam) = 24mc, so the numerators are summed mod D and one
    scalar is built per distinct sum.

    Requires A in the congruence subgroup for the kind (c a positive
    multiple of the level: level_constant(m) for "f", twice that for
    "omega") and gcd(a, beta) = 1.
    """
    m, t = p.m, p.t
    alpha, beta = _linear_form(kind)
    factor, multiplier_phase = _CONSTANCY_MULTIPLIER[kind]
    level = factor * level_constant(m)
    t_a = t_image(A.a, p, kind)
    if A.c <= 0 or A.c % level:
        raise BadMatrix(f"need c > 0 with {level} | c")
    a, b, c, d = A.entries()
    a_inv = _inverse_of_a(a, m)
    denominator = 24 * m * c
    # s/m and s_A/m over D; beta divides 24
    shift = (alpha + beta * t) * (24 * c // beta)
    shift_img = (alpha + beta * t_a) * (24 * c // beta)
    numerators = set()
    for lam in range(m):
        lam_p, a2, b2, c2, d2 = _pass_upper(a, b, c, d, m, lam, a_inv)
        u = multiplier_phase(a2, b2, c2, d2) - lam * shift + lam_p * shift_img
        numerators.add(u % denominator)
    return {ExactScalar.unit_phase(Fraction(u, denominator)) for u in numerators}


def _cancellation_phase(
    A: UnimodularMatrix, m: int, lam: int, include_curvature: bool = True
) -> Fraction:
    """Phase of (-1)^((-ac lam' + cd lam)/2) e^(2 pi i(-c lam/4 - 3mc^2 lam'/8)),
    mod 1, summed as an integer numerator over 8, with lam' and the checks
    of decompose_upper.  ``include_curvature=False`` drops the 3mc^2 lam'/8
    term (negative control)."""
    if not 0 <= lam < m:
        raise ValueError("need 0 <= lam < m")
    a, b, c, d = A.entries()
    lam_p = _pass_upper(a, b, c, d, m, lam, _inverse_of_a(a, m))[0]
    u = 2 * (c * d * lam - a * c * lam_p) - 2 * c * lam
    if include_curvature:
        u -= 3 * m * c * c * lam_p
    return Fraction(u % 8, 8)


def phase_cancellation_check(A: UnimodularMatrix, m: int, lam: int) -> bool:
    """Whether the sign/eighth-root factor split off the combined multiplier
    collapses to 1 (it always should on the admissible domain: A in the
    level-constant subgroup with gcd(a, 6) = 1 and c > 0)."""
    if A.c <= 0 or A.c % level_constant(m):
        raise BadMatrix("need c > 0 in the level subgroup")
    if gcd(A.a, 6) != 1:
        raise BadUnit(f"gcd({A.a}, 6) != 1")
    return _cancellation_phase(A, m, lam) == 0


# ---------------------------------------------------------- cusp expansion


def cusp_decompose(lam: int, Q: int, c_entry: int) -> CuspDecomposition:
    """Factor (1 lam; 0 Q)(1 0; c_entry 1) = C (1 lam*; 0 Q/d)(d 0; 0 1)
    with d = gcd(1 + lam*c_entry, Q) and C unimodular.

    For c_entry != 1, lam* is the unique solution in [0, Q/d).  For
    c_entry = 1 the representative is free mod Q/d; we take Q itself when
    d = Q (the leading-cusp case), otherwise the smallest nonnegative
    solution making d - lam* even whenever Q/d is odd.
    """
    if Q < 1 or c_entry < 1:
        raise ValueError("Q and c_entry must be positive")
    one_plus = 1 + lam * c_entry
    d_lam = gcd(one_plus, Q)
    qd = Q // d_lam
    unit = one_plus // d_lam
    base = (pow(unit % qd, -1, qd) * lam) % qd if qd > 1 else 0
    if c_entry == 1:
        if qd == 1:
            lam_star = Q
        elif qd % 2 == 1 and (d_lam - base) % 2 != 0:
            lam_star = base + qd
        else:
            lam_star = base
    else:
        lam_star = base
    num = -unit * lam_star + lam
    if num % qd:
        raise ArithmeticError("inconsistent representative")
    c_matrix = UnimodularMatrix(
        unit, num // qd, c_entry * qd, -c_entry * lam_star + d_lam
    )
    return CuspDecomposition(d_lam, lam_star, c_matrix)


# Per kind, what Q must be prime to for the expansion at the kind's cusp.
CUSP_Q_PRIME_TO = {"f": 6, "omega": 3}


def cusp_q_ok(kind: str, Q: int) -> bool:
    """Whether the kind's cusp expansion admits Q: Q >= 1, prime to
    CUSP_Q_PRIME_TO[kind] (6 for kind "f", 3 for kind "omega")."""
    return Q >= 1 and gcd(Q, CUSP_Q_PRIME_TO[kind]) == 1


def cusp_half_leading(Q: int, t: int) -> ExactScalar:
    """Exact leading coefficient of the averaged f-side form expanded at the
    cusp 1/2, for gcd(Q, 6) = 1:

        (1/sqrt(Q)) w(C0) zeta_Q^(((1-Q)/2)(t - 1/24)),  C0 = (1 (Q-1)/2; 2 Q).

    Its 24Q-th power is Q^(-12Q) exactly (see ``cusp_identity``).
    """
    if not cusp_q_ok("f", Q):
        raise BadQ(f"need gcd(Q, 6) = 1, got Q={Q}")
    c0 = UnimodularMatrix(1, (Q - 1) // 2, 2, Q)
    phase = Fraction(1 - Q, 2) * (Fraction(t) - Fraction(1, 24)) / Q
    return (
        ExactScalar.sqrt_of(Fraction(1, Q))
        * mock_multiplier(c0)
        * ExactScalar.unit_phase(phase)
    )


def cusp_one_leading(Q: int, t: int) -> ExactScalar:
    """Exact leading coefficient of the averaged omega-side form expanded at
    the cusp 1, for 3 not dividing Q:

        (1/sqrt(2Q)) w2(D0) zeta_Q^((1-Q)(t + 2/3)) e^(-2 pi i Q/48),
        D0 = (1 -1; 1 0).

    Its 24Q-th power is (-1)^Q (2Q)^(-12Q) exactly (see ``cusp_identity``).
    """
    if not cusp_q_ok("omega", Q):
        raise BadQ(f"need 3 coprime to Q, got Q={Q}")
    d0 = UnimodularMatrix(1, -1, 1, 0)
    phase = Fraction(1 - Q) * (Fraction(t) + Fraction(2, 3)) / Q - Fraction(Q, 48)
    return (
        ExactScalar.sqrt_of(Fraction(1, 2 * Q))
        * omega_multiplier_even_d(d0)
        * ExactScalar.unit_phase(phase)
    )


def cusp_identity(kind: str, Q: int, t: int) -> tuple[ExactScalar, ExactScalar]:
    """(the 24Q-th power of the kind's cusp leading term at t, its exact
    value): Q^(-12Q) for ``cusp_half_leading`` (kind "f"), (-1)^Q (2Q)^(-12Q)
    for ``cusp_one_leading`` (kind "omega").  BadQ unless cusp_q_ok."""
    if kind == "f":
        value = cusp_half_leading(Q, t)
        expected = ExactScalar(Fraction(1, Q) ** (12 * Q))
    elif kind == "omega":
        value = cusp_one_leading(Q, t)
        expected = ExactScalar(Fraction(1, 2 * Q) ** (12 * Q), 1, Fraction(Q % 2, 2))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return value ** (24 * Q), expected


def good_progression_support_vanishes(p: Progression, kind: str) -> bool:
    """Whether the quadratic support of the non-holomorphic tail misses the
    progression: no x with x^2 = alpha + beta*t (mod |beta| m).  With x =
    6k + 1 that is no k with k(3k+1)/2 = -t (mod m) for kind "f", and with
    x = 3k + 1 no k with 3k^2 + 2k = -t-1 (mod m) for kind "omega".  True on
    every good progression."""
    alpha, beta = _linear_form(kind)
    n = abs(beta) * p.m
    target = (alpha + beta * p.t) % n
    return target not in {x * x % n for x in range(n // 2 + 1)}


# ------------------------------------------------------------ numeric eta


def eta_numeric(z: complex, terms: int = 200) -> complex:
    """Numerical eta via the expanded (pentagonal) form of the product,
    summing indices |k| <= terms at most; far smaller truncation error than
    cutting the raw product at the same term count.  Eta is defined on the
    upper half plane only: Im z <= 0 (or nan) raises ValueError.

    With q = e^(2 pi i z), eta(z) = e^(2 pi i z/24) sum_k (-1)^k q^(k(3k+1)/2).
    One exponential gives q.  For j >= 1 the exponent grows by 3j - 1 from
    k = j - 1 to k = j and by 3j - 2 from k = 1 - j to k = -j, so both
    tails are running products whose steps advance by q^3.

    The sum stops early once its rest cannot matter.  From index j on, each
    step shrinks a term by at least |q|^3, and |q^(j(3j+1)/2)| is at most
    |q^(j(3j-1)/2)|, so the terms left sum to at most
    2 |q^(j(3j-1)/2)| / (1 - |q|^3).  When that bound is at most 2^-59 of
    the running |sum|, a 64th of its half-ulp rounding, the terms are not
    added; ``terms`` stays the cap.

    The error is small against the sum of the terms' moduli, not against
    |eta|.  Near a cusp, where |eta(z)| is far below its largest terms, the
    relative accuracy is lost: at z = -0.000348+0.00138j this sum and the
    per-term sum differ by 16.7 times the latter's modulus, and both are
    rounding noise near 1e-15, while |eta(z)| is about 1e-76 (by
    eta(-1/z) = sqrt(-iz) eta(z)).  The identity suites stay where this
    does not matter: their points have Im z above 0.0036 (c <= 20,
    Im z <= 0.5 and |Re z + d/c| <= 0.3 before z -> Az), and they compare
    the two sides of the transformation law with an absolute tolerance of
    1e-9.  Mapping z into the fundamental domain with ``eta_multiplier``
    before summing would keep the relative error at the float level; it is
    not done."""
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if not z.imag > 0:
        raise ValueError(f"eta_numeric needs Im z > 0, got z={z}")
    q = cmath.exp(2j * cmath.pi * z)
    q3 = q * q * q
    # the rest is negligible once 2 |down| / (1 - |q|^3) <= 2^-59 |total|
    cut = 2.0**-60 * (1 - abs(q3))
    total = 1 + 0j
    up, up_step = 1 + 0j, q * q  # q^(k(3k+1)/2), q^(3k-1)
    down, down_step = 1 + 0j, q  # q^(k(3k-1)/2), q^(3k-2)
    sign = -1
    for _ in range(terms):
        up *= up_step
        down *= down_step
        if abs(down) <= cut * abs(total):
            break
        total += sign * (up + down)
        up_step *= q3
        down_step *= q3
        sign = -sign
    return cmath.exp(2j * cmath.pi * z / 24) * total


def eta_transform_defect(A: UnimodularMatrix, z: complex, terms: int = 200) -> float:
    """|eta(Az) - nu(A) sqrt(-i(cz+d)) eta(z)| at a point, numerically."""
    lhs = eta_numeric(A.apply(z), terms)
    factor = cmath.sqrt(-1j * (A.c * z + A.d))
    rhs = complex(eta_multiplier(A)) * factor * eta_numeric(z, terms)
    return abs(lhs - rhs)


# ------------------------------------------------------ randomized suites
# A trial draws one instance from its rng and returns whether the identity
# held, with the instance's description as a callable: only a suite's first
# failure is ever described.


def random_unimodular(
    rng: random.Random,
    level: int = 1,
    c_mult_max: int = 2,
    prime_to: int = 1,
) -> UnimodularMatrix:
    """A random determinant-1 matrix with c a positive multiple of level
    and the top-left entry a prime to ``prime_to``.  Both must be positive.
    """
    if level < 1 or prime_to < 1:
        raise ValueError("level and prime_to must be positive")
    while True:
        c = level * rng.randint(1, c_mult_max)
        d = rng.randrange(-4 * c, 4 * c + 1)
        if d == 0 or gcd(d, c) != 1:
            continue
        a0 = pow(d, -1, c)
        for j in range(1, 7):
            a = a0 + j * c if a0 == 0 else a0 + (j - 1) * c
            if a == 0 or gcd(a, prime_to) != 1:
                continue
            return UnimodularMatrix(a, (a * d - 1) // c, c, d)


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    first_failure: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


DEFAULT_SEED = 1729

_GOOD_CAPABLE_M = (5, 7, 10, 11, 13, 14, 35)


@cache
def _good_choices(m: int, kind: str) -> tuple[int, ...]:
    """``good_residues(m, kind)`` for the suites' draws, computed on first
    use and then once per (m, kind)."""
    return tuple(good_residues(m, kind))


def _trial_dedekind_integrality(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    A = random_unimodular(rng, 1, 40)
    value = 12 * dedekind_sum(-A.d, A.c) + Fraction(A.a + A.d, A.c)
    return value.denominator == 1, lambda: f"A={A} value={value}"

def _trial_mock_multiplier_order(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    A = random_unimodular(rng, 2, 12)
    return mock_multiplier(A) ** 24 == ExactScalar.one(), lambda: f"A={A}"

def _trial_shift_parity(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    m = rng.randint(1, 8)
    A = random_unimodular(rng, level_constant(m), 2, prime_to=3)
    residual = (
        dedekind_sum(A.d + A.c, m * A.c)
        - dedekind_sum(A.d, m * A.c)
        - Fraction(1 - A.a * A.a, 12 * m)
    )
    ok = residual.denominator == 1 and residual.numerator % 2 == 0
    return ok, lambda: f"m={m} A={A} residual={residual}"

def _trial_sign_cancellation(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    m = rng.randint(1, 8)
    A = random_unimodular(rng, level_constant(m), 2, prime_to=6)
    lam = rng.randrange(m)
    return phase_cancellation_check(A, m, lam), lambda: f"m={m} lam={lam} A={A}"

def _trial_corrupted_cancellation(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    m = rng.choice((5, 7, 11, 13))
    A = random_unimodular(rng, level_constant(m), 2, prime_to=6)
    lam = rng.randrange(m)
    phase = _cancellation_phase(A, m, lam, include_curvature=False)
    return phase == 0, lambda: f"m={m} lam={lam} A={A} phase={phase}"

def _constancy_trial(kind: str):
    """The phase-constancy trial of kind "f" or "omega": a good progression
    and a matrix of the kind's level with a prime to beta."""
    prime_to = abs(_linear_form(kind)[1])
    factor = _CONSTANCY_MULTIPLIER[kind][0]

    def trial(rng: random.Random) -> tuple[bool, Callable[[], str]]:
        m = rng.choice(_GOOD_CAPABLE_M)
        p = Progression(m, rng.choice(_good_choices(m, kind)))
        A = random_unimodular(rng, factor * level_constant(m), 1, prime_to=prime_to)
        values = constancy_check(A, p, kind)
        ok = len(values) == 1 and next(iter(values)) ** (24 * m) == ExactScalar.one()
        return ok, lambda: f"p={p} A={A} values={len(values)}"

    return trial

def _trial_orbit_coverage(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    kind = rng.choice(("f", "omega", "eta"))
    m = rng.randint(1, 40)
    p = Progression(m, rng.randrange(m))
    B = rng.choice((-5, -3, -2, -1, 1, 2, 3, 15)) if kind == "eta" else None
    ok = coverage_target(p, kind, B) <= orbit(p, kind, B)
    return ok, lambda: f"kind={kind} p={p} B={B}"

def _trial_good_support(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    kind = rng.choice(("f", "omega"))
    m = rng.choice(_GOOD_CAPABLE_M)
    p = Progression(m, rng.choice(_good_choices(m, kind)))
    return good_progression_support_vanishes(p, kind), lambda: f"kind={kind} p={p}"

def _trial_eta_numeric(rng: random.Random) -> tuple[bool, Callable[[], str]]:
    A = random_unimodular(rng, 1, 20)
    x = -A.d / A.c + rng.uniform(-0.3, 0.3)
    z = complex(x, rng.uniform(0.3, 0.5))
    defect = eta_transform_defect(A, z)
    return defect < 1e-9, lambda: f"A={A} z={z} defect={defect:.3e}"


_SUITES = (
    ("dedekind-integrality", _trial_dedekind_integrality),
    ("mock-multiplier-order-24", _trial_mock_multiplier_order),
    ("dedekind-shift-parity", _trial_shift_parity),
    ("sign-cancellation", _trial_sign_cancellation),
    ("phase-constancy-f", _constancy_trial("f")),
    ("phase-constancy-omega", _constancy_trial("omega")),
    ("orbit-coverage", _trial_orbit_coverage),
    ("good-progression-support", _trial_good_support),
    ("eta-transform-numeric", _trial_eta_numeric),
)


def identity_suites(
    seed: int = DEFAULT_SEED, trials: int = 100, negative_control: bool = False
) -> list[SuiteResult]:
    """Run the randomized identity suites with a reproducible seed.

    ``negative_control=True`` instead runs the deliberately corrupted
    cancellation check, which must produce failures (that the harness
    detects them is the point).  ``trials`` must be positive."""
    if trials < 1:
        raise ValueError("trials must be positive")
    chosen = (
        (("corrupted-sign-cancellation", _trial_corrupted_cancellation),)
        if negative_control
        else _SUITES
    )
    results = []
    for name, fn in chosen:
        rng = random.Random(f"{seed}:{name}")
        failures = 0
        first = None
        for _ in range(trials):
            ok, detail = fn(rng)
            if not ok:
                failures += 1
                if first is None:
                    first = detail()
        results.append(SuiteResult(name, trials, failures, first))
    return results

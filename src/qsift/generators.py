"""Generating functions: eta-quotients, the mock theta functions f and omega,
the weight-3/2 theta series (eta-quotients up to a rational scale), and the
named series catalog.

An eta-quotient prod eta(q^delta)^r is q^(B/24) times a product of powers of
Euler products E_delta = prod(1 - q^(delta*n)), each with pentagonal-number
support.  It is built from the shared series operations alone: the positive
factors as ``E_delta ** r`` multiplied together, divided by the negative
ones.  Over Z/m the negative factors are multiplied into one denominator and
divided once, so ``/`` may pick Newton division; over Z (where ``/`` only
runs the sparse recurrence) the quotient divides by each sparse E_delta in
turn.  Over Z/ell with ell prime, f(q)^ell = f(q^ell) first rewrites the
factors (``_ell_rewrite``, which ``level_mod_ell`` reads for the
criterion), so fewer and sparser factors remain; over Z, Z/ell^k (k >= 2)
and composite moduli the factors are used as given.

The Euler products and the mock theta numerators are sparse sums:
``(start, step, value)`` fills that one routine, ``qseries._sparse_sum``,
turns into a series.  The mock theta functions come
from Watson's Appell-Lerch forms: each is a numerator of geometric fills,
costing O(P log P), over one Euler product, and the single series division
picks its kernel by predicted cost (see ``QSeries.__truediv__``).

Every generator accepts an optional coefficient ring; constructing directly
in Z/m agrees with constructing over Z and reducing, which the test suite
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

from .arith import is_prime
from .qseries import (
    INTEGER,
    CoefficientRing,
    QSeries,
    _sparse_sum,
    integer_mod,
    monomial,
)

__all__ = [
    "UnknownSeries",
    "EtaQuotientSpec",
    "SeriesCatalogEntry",
    "eta_series",
    "eta_quotient",
    "level_mod_ell",
    "mock_f",
    "mock_omega",
    "THETA_SERIES",
    "catalog",
    "catalog_entry",
    "build_series",
    "resolve_series",
]


class UnknownSeries(KeyError):
    """No catalog entry with that name."""


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product of rescaled eta factors, one (delta, r) pair per
    factor; deltas are kept distinct and sorted ascending."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        factors = tuple(sorted((int(d), int(r)) for d, r in self.factors))
        if not factors:
            raise ValueError("an eta-quotient needs at least one factor")
        deltas = [d for d, _ in factors]
        if len(set(deltas)) != len(deltas):
            raise ValueError("deltas must be pairwise distinct")
        for d, r in factors:
            if d < 1:
                raise ValueError("deltas must be positive")
            if r == 0:
                raise ValueError("exponents must be nonzero")
        object.__setattr__(self, "factors", factors)

    @property
    def B(self) -> int:
        """sum(delta * r) -- controls the fractional exponent B/24."""
        return sum(d * r for d, r in self.factors)

    @property
    def weight_twice(self) -> int:
        """Twice the weight: sum of the exponents."""
        return sum(r for _, r in self.factors)

    @property
    def level(self) -> int:
        return lcm(*(d for d, _ in self.factors))

    def __str__(self) -> str:
        return ",".join(f"{d}^{r}" for d, r in self.factors)


@dataclass(frozen=True)
class SeriesCatalogEntry:
    name: str
    spec: EtaQuotientSpec | str  # an eta-quotient or a builtin tag
    description: str


def _terms_over_z(exponent, limit: int) -> list[tuple[int, int]]:
    """The (exponent(k), k) pairs with exponent(k) < limit, k over Z: the
    terms of a sparse sum over k in Z whose exponent, a quadratic in k,
    grows with |k| (k = 0, +-1, +-2, ... until both k and -k reach the
    limit)."""
    terms = []
    k = 0
    while True:
        hit = False
        for kk in {k, -k}:
            e = exponent(kk)
            if e < limit:
                terms.append((e, kk))
                hit = True
        if not hit:
            return terms
        k += 1


def _euler_product(prec: int, delta: int, ring: CoefficientRing, offset=0) -> QSeries:
    """q^offset * prod(1 - q^(delta*n)) = q^offset * sum (-1)^k q^(delta k(3k+1)/2)
    over k in Z, to ``prec`` slots: one single-slot fill per pentagonal term."""
    terms = _terms_over_z(lambda k: delta * k * (3 * k + 1) // 2, prec)
    fills = [(e, prec, -1 if k % 2 else 1) for e, k in terms]
    return _sparse_sum(prec, ring, fills, offset)


def eta_series(prec: int, ring: CoefficientRing = INTEGER) -> QSeries:
    """q^(1/24) * prod(1 - q^n): offset 1/24, pentagonal-number support."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return _euler_product(prec, 1, ring, Fraction(1, 24))


def _frobenius_factors(
    spec: EtaQuotientSpec, ring: CoefficientRing
) -> tuple[tuple[int, int], ...]:
    """The (delta, r) factors to build ``spec`` from over ``ring``: over
    Z/ell, ell prime, ``_ell_rewrite(spec.factors, ell)``; in every other
    ring the factors as they are, since f(q)^ell = f(q^ell) fails mod ell^k
    for k >= 2 and mod composite numbers."""
    if ring.kind != "mod" or not is_prime(ring.modulus):
        return spec.factors
    return _ell_rewrite(spec.factors, ring.modulus)


def _ell_rewrite(factors, ell: int) -> tuple[tuple[int, int], ...]:
    """(delta, r) factors whose eta-quotient is congruent mod the prime ell
    to that of ``factors``: f(q)^ell = f(q^ell) turns each (delta, ell^s r')
    into (ell^s delta, r'), keeping B; equal deltas merge, a merged exponent
    divisible by ell is turned again, and zero exponents drop.  No exponent
    returned is divisible by ell, and each class of deltas with one ell-free
    part keeps its total sum(ell^s r), so a class is empty exactly when its
    total is 0: the ell-free part of the lcm of the deltas returned is the
    level ``level_mod_ell`` gives the criterion."""
    merged: dict[int, int] = {}
    todo = list(factors)
    while todo:
        delta, r = todo.pop()
        while r % ell == 0:
            delta, r = delta * ell, r // ell
        r += merged.pop(delta, 0)
        if r % ell:
            merged[delta] = r
        elif r:
            todo.append((delta, r))
    return tuple(sorted(merged.items()))


def level_mod_ell(spec: EtaQuotientSpec, ell: int) -> tuple[int, int]:
    """(level, lattice) of the eta-quotient mod the prime ell: the lcm and
    the gcd of the deltas ``_ell_rewrite`` leaves, or (1, 0) when none is
    left (the quotient is 1 mod ell, so only slot 0 can be nonzero)."""
    deltas = [delta for delta, _ in _ell_rewrite(spec.factors, ell)]
    return lcm(*deltas), gcd(*deltas)


def eta_quotient(
    spec: EtaQuotientSpec, prec: int, ring: CoefficientRing = INTEGER
) -> QSeries:
    """The q-expansion of prod eta(q^delta)^r: offset B/24, leading
    coefficient 1.

    The Euler products E_delta of the positive factors are raised to their
    exponents and multiplied together.  Over Z/m the negative factors are
    multiplied into one denominator and divided out once; over Z the
    quotient divides by each sparse E_delta in turn, because there ``/``
    only runs the recurrence, whose cost grows with the divisor's support.
    Over Z/ell, ell prime, the factors are first rewritten by
    f(q)^ell = f(q^ell) (see ``_frobenius_factors``).
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    factors = _frobenius_factors(spec, ring)
    euler = {delta: _euler_product(prec, delta, ring) for delta, _ in factors}
    positive = [euler[d] ** r for d, r in factors if r > 0]
    out = reduce(mul, positive) if positive else monomial(0, ring, prec)
    if ring.kind == "mod":
        negative = [euler[d] ** -r for d, r in factors if r < 0]
        if negative:
            out = out / reduce(mul, negative)
    else:
        for d, r in factors:
            for _ in range(-r):
                out = out / euler[d]
    return QSeries._trusted(Fraction(spec.B, 24), out.slots, ring)


def mock_f(prec: int, ring: CoefficientRing = INTEGER) -> QSeries:
    """The mock theta function f(q) = 1 + sum(q^(n^2) / ((1+q)...(1+q^n))^2).

    Built from Watson's Appell-Lerch form
    f(q) (q;q)_inf = 1 + 4 sum_{k>=1} (-1)^k q^(k(3k+1)/2) / (1 + q^k)
    (the k and -k terms of his sum over Z coincide): a numerator of
    geometric fills, expanding 1/(1 + q^k) = 1 - q^k + q^(2k) - ..., then
    one series division.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    ks = range(1, isqrt(prec) + 1)  # covers every k with k(3k+1)/2 < prec
    heads = ((k * (3 * k + 1) // 2, 2 * k, 4 * (-1) ** k) for k in ks)
    tails = ((k * (3 * k + 3) // 2, 2 * k, -4 * (-1) ** k) for k in ks)
    numerator = _sparse_sum(prec, ring, chain([(0, prec, 1)], heads, tails))
    return numerator / _euler_product(prec, 1, ring)


def mock_omega(prec: int, ring: CoefficientRing = INTEGER) -> QSeries:
    """The mock theta function omega(q) = sum(q^(2n^2+2n) / ((q; q^2)_{n+1})^2).

    Built from Watson's Appell-Lerch form
    omega(q) (q^2;q^2)_inf = sum_{n>=0} (-1)^n q^(3n(n+1)) (1 + q^(2n+1)) / (1 - q^(2n+1)):
    a numerator of geometric fills, expanding (1 + x)/(1 - x) = 1 + 2x +
    2x^2 + ..., then one series division.  Expansion starts
    1 + 2q + 3q^2 + 4q^3 + 6q^4 + ...
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    ns = range(isqrt(prec) + 1)  # covers every n with 3n(n+1) < prec
    heads = ((3 * n * (n + 1), prec, (-1) ** n) for n in ns)
    tails = ((3 * n * (n + 1) + 2 * n + 1, 2 * n + 1, 2 * (-1) ** n) for n in ns)
    numerator = _sparse_sum(prec, ring, chain(heads, tails))
    return numerator / _euler_product(prec, 2, ring)


# The weight-3/2 theta series g_0, g_1, g_2 attached to f and omega: each
# name's eta-quotient and the rational scale that makes it g_i.  The
# exponents of g_0 and g_2, (3n+1)^2/6, step by half-integers, so those two
# are in the variable q^(1/2), every exponent doubled (offset 1/3).  Such
# eta-quotients are theta functions (Lemke Oliver, "Eta-quotients and theta
# functions", Adv. Math. 241 (2013)).
THETA_SERIES = {
    "theta_g0": (EtaQuotientSpec(((1, -2), (2, 5))), Fraction(1, 3)),
    "theta_g1": (EtaQuotientSpec(((1, 5), (2, -2))), Fraction(-1, 6)),
    "theta_g2": (EtaQuotientSpec(((1, 2), (2, -1), (4, 2))), Fraction(1, 3)),
}

_CATALOG = (
    SeriesCatalogEntry(
        "partition", EtaQuotientSpec(((1, -1),)), "partition numbers p(n)"
    ),
    SeriesCatalogEntry(
        "multipartition_2", EtaQuotientSpec(((1, -2),)), "2-multipartitions"
    ),
    SeriesCatalogEntry(
        "multipartition_3", EtaQuotientSpec(((1, -3),)), "3-multipartitions"
    ),
    SeriesCatalogEntry(
        "cubic",
        EtaQuotientSpec(((1, -1), (2, -1))),
        "cubic partitions (second component even parts only)",
    ),
    SeriesCatalogEntry(
        "crank_diff",
        EtaQuotientSpec(((1, 3), (2, -2))),
        "even-minus-odd crank counts",
    ),
    SeriesCatalogEntry(
        "cphi2",
        EtaQuotientSpec(((1, -4), (2, 5), (4, -2))),
        "generalized Frobenius symbols cphi_2(n)",
    ),
    SeriesCatalogEntry(
        "core4", EtaQuotientSpec(((1, -1), (4, 4))), "4-core partitions"
    ),
    SeriesCatalogEntry(
        "eta5inv", EtaQuotientSpec(((5, -1),)), "inverse eta at level 5"
    ),
    SeriesCatalogEntry("mock_f", "mock_f", "mock theta function f(q)"),
    SeriesCatalogEntry("mock_omega", "mock_omega", "mock theta function omega(q)"),
    SeriesCatalogEntry("theta_g0", "theta_g0", "weight-3/2 theta series g_0"),
    SeriesCatalogEntry("theta_g1", "theta_g1", "weight-3/2 theta series g_1"),
    SeriesCatalogEntry("theta_g2", "theta_g2", "weight-3/2 theta series g_2"),
)


def catalog() -> tuple[SeriesCatalogEntry, ...]:
    """The named series this package knows how to build; the names are the
    stable identifiers used by the CLI and scan reports."""
    return _CATALOG


def catalog_entry(name: str) -> SeriesCatalogEntry:
    for entry in _CATALOG:
        if entry.name == name:
            return entry
    raise UnknownSeries(name)


def resolve_series(
    spec: EtaQuotientSpec | str, modulus: int | None = None
) -> tuple[EtaQuotientSpec | str, CoefficientRing]:
    """What ``build_series(spec, prec, modulus)`` builds: the canonical
    spec (an eta-quotient, a theta series's own without its scale, or the
    name of a mock theta function) and the ring, Z or Z/modulus.  Raises
    UnknownSeries for an unknown name, and ValueError for a modulus on a
    theta series, whose scale is not a unit mod every modulus."""
    if not isinstance(spec, EtaQuotientSpec):
        name, spec = spec, catalog_entry(spec).spec
        if name in THETA_SERIES:
            if modulus is not None:
                raise ValueError("theta series have rational coefficients; no reduction")
            spec = THETA_SERIES[name][0]
    return spec, INTEGER if modulus is None else integer_mod(modulus)


def build_series(
    spec: EtaQuotientSpec | str, prec: int, modulus: int | None = None
) -> QSeries:
    """Build a catalog series or an explicit eta-quotient, optionally
    directly over Z/modulus.  A theta series is built as its integral
    eta-quotient; ``THETA_SERIES`` holds the scale that makes it g_i."""
    spec, ring = resolve_series(spec, modulus)
    if spec == "mock_f":
        return mock_f(prec, ring)
    if spec == "mock_omega":
        return mock_omega(prec, ring)
    return eta_quotient(spec, prec, ring)

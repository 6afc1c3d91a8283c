"""Generating functions: eta-quotients, the mock theta functions f and omega,
the weight-3/2 theta series (eta-quotients up to a rational scale), and the
named series catalog.

An eta-quotient prod eta(q^delta)^r is q^(B/24) times a product of powers of
Euler products E_delta = prod(1 - q^(delta*n)), each with pentagonal-number
support.  It is built from a plan, a list of (delta, r) factors whose
product is the quotient, with the shared series operations alone: each
E_delta^r with |r| >= 3 as J_delta^a E_delta^b, r = 3a + b, where
J_delta = E_delta^3 is Jacobi's sparse sum of (-1)^k (2k+1) q^(delta
k(k+1)/2); the positive parts multiplied together, and the whole quotient
in q^g, g the gcd of the plan's deltas.  Over Z/m the negative parts are
multiplied into one denominator and divided once, so ``/`` may pick Newton
division; over Z (where ``/`` only runs the sparse recurrence) the quotient
divides by each sparse factor in turn.  Over Z/ell with ell prime,
f(q)^ell = f(q^ell) lets each class of deltas with one ell-free part carry
any exponents with the same total sum(ell^j r_j): the canonical rewrite
(``_ell_rewrite``, which ``level_mod_ell`` reads for the criterion) and its
digit expansions are priced from the kernels' cost predictions, and the
cheapest plan is built.  Over Z, Z/ell^k (k >= 2) and composite moduli the
plan is the factors as given.

The Euler products, Jacobi's cubes and the mock theta numerators are
sparse sums over closed-form ranges of terms: ``(start, step, value)``
fills that one routine, ``qseries._sparse_sum``, turns into a series.  The mock theta functions come
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
from functools import cached_property, reduce
from itertools import chain, product
from math import gcd, isqrt, lcm
from operator import mul

from .arith import is_prime
from .qseries import (
    INTEGER,
    CoefficientRing,
    QSeries,
    _division_cost,
    _residue_product_cost,
    _sparse_sum,
    _square_and_multiply,
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

    # The derived values below are computed on first access and kept in the
    # instance dict, outside the fields: equality, hashing and the pickled
    # state (``__getstate__``) see the factors only.

    @cached_property
    def B(self) -> int:
        """sum(delta * r) -- controls the fractional exponent B/24."""
        return sum(d * r for d, r in self.factors)

    @cached_property
    def weight_twice(self) -> int:
        """Twice the weight: sum of the exponents."""
        return sum(r for _, r in self.factors)

    @cached_property
    def level(self) -> int:
        return lcm(*(d for d, _ in self.factors))

    @cached_property
    def _text(self) -> str:
        return ",".join(f"{d}^{r}" for d, r in self.factors)

    @cached_property
    def _levels_mod_ell(self) -> dict[int, tuple[int, int]]:
        """``level_mod_ell(self, ell)`` by ell, filled as they are asked for."""
        return {}

    def __str__(self) -> str:
        return self._text

    def __getstate__(self) -> dict:
        return {"factors": self.factors}


@dataclass(frozen=True)
class SeriesCatalogEntry:
    name: str
    spec: EtaQuotientSpec | str  # an eta-quotient or a builtin tag
    description: str


def _euler_product(prec: int, delta: int, ring: CoefficientRing, offset=0) -> QSeries:
    """q^offset * prod(1 - q^(delta*n)) = q^offset * sum (-1)^k q^(delta k(3k+1)/2)
    over k in Z, to ``prec`` slots: one single-slot fill per pentagonal term."""
    ks = _pentagonal_ks(prec, delta)
    fills = [(delta * k * (3 * k + 1) // 2, prec, -1 if k % 2 else 1) for k in ks]
    return _sparse_sum(prec, ring, fills, offset)


def _jacobi_cube(prec: int, delta: int, ring: CoefficientRing) -> QSeries:
    """prod(1 - q^(delta*n))^3 = sum (-1)^k (2k+1) q^(delta k(k+1)/2) over
    k >= 0 (Jacobi), to ``prec`` slots: one single-slot fill per
    triangular term, so the cube costs no product in any ring."""
    ks = range(_triangular_count(prec, delta))
    fills = [(delta * k * (k + 1) // 2, prec, (-1) ** k * (2 * k + 1)) for k in ks]
    return _sparse_sum(prec, ring, fills)


def _triangular_count(prec: int, delta: int) -> int:
    """The number of k >= 0 with delta k(k+1)/2 < prec: (2k+1)^2 <= 8M + 1
    for M = (prec - 1) // delta."""
    return (isqrt(8 * ((prec - 1) // delta) + 1) + 1) // 2


def _pentagonal_ks(prec: int, delta: int) -> range:
    """The k in Z with delta k(3k+1)/2 < prec, the nonzero slots of
    ``_euler_product``: (6k+1)^2 <= 24M + 1 for M = (prec - 1) // delta,
    k >= 0 giving 6k + 1 and k < 0 giving 6|k| - 1."""
    root = isqrt(24 * ((prec - 1) // delta) + 1)
    return range(-((root + 1) // 6), (root - 1) // 6 + 1)


def eta_series(prec: int, ring: CoefficientRing = INTEGER) -> QSeries:
    """q^(1/24) * prod(1 - q^n): offset 1/24, pentagonal-number support."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return _euler_product(prec, 1, ring, Fraction(1, 24))


def _frobenius_prime(ring: CoefficientRing) -> int | None:
    """ell where ``ring`` is Z/ell, ell prime, so that f(q)^ell = f(q^ell)
    holds; None in every other ring, as the identity fails mod ell^k for
    k >= 2 and mod composite numbers."""
    if ring.kind == "mod" and is_prime(ring.modulus):
        return ring.modulus
    return None


def _frobenius_factors(
    spec: EtaQuotientSpec, ring: CoefficientRing
) -> tuple[tuple[int, int], ...]:
    """The canonical (delta, r) factors of ``spec`` over ``ring``: over
    Z/ell, ell prime, ``_ell_rewrite(spec.factors, ell)``; in every other
    ring the factors as they are."""
    ell = _frobenius_prime(ring)
    return spec.factors if ell is None else _ell_rewrite(spec.factors, ell)


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
    left (the quotient is 1 mod ell, so only slot 0 can be nonzero).
    Computed once per (spec, ell)."""
    levels = spec._levels_mod_ell
    if ell not in levels:
        deltas = [delta for delta, _ in _ell_rewrite(spec.factors, ell)]
        levels[ell] = lcm(*deltas), gcd(*deltas)
    return levels[ell]


def _ell_free_part(delta: int, ell: int) -> int:
    """delta with every factor ell divided out."""
    while delta % ell == 0:
        delta //= ell
    return delta


def _ell_classes(factors, ell: int) -> dict[int, int]:
    """{ell-free part delta_0: total sum(ell^j r_j)} over the factors
    (ell^j delta_0, r_j): mod ell, by f(q)^ell = f(q^ell), any exponents
    with the same totals give the same eta-quotient."""
    classes: dict[int, int] = {}
    for delta, r in factors:
        base = _ell_free_part(delta, ell)
        classes[base] = classes.get(base, 0) + delta // base * r
    return classes


def _digit_expansions(base: int, total: int, ell: int, prec: int):
    """The (delta, r) factors on base, ell base, ell^2 base, ... whose
    exponents r_j have sum(ell^j r_j) = total, with at most two nonzero
    digits r_j, each in [-R, R] for R = max(3, ell - 1) and congruent mod
    ell to what is left of the total (so none is divisible by ell).  Once
    ell^j base >= prec, what is left is one factor that is 1 to ``prec``
    slots (the builder skips it).  Two digits keep a class to a handful of
    expansions: with three allowed, the fastest plan of nine catalog builds
    at 2*10^4 (the benchmark's six among them) still had at most two a
    class, and pricing took two to three times as long."""
    bound = max(3, ell - 1)

    def expand(delta: int, left: int, digits: int):
        if not left:
            yield ()
        elif delta >= prec:
            yield ((delta, left),)
        elif left % ell == 0:
            yield from expand(delta * ell, left // ell, digits)
        elif digits:
            first = left % ell
            for r in range(first - (first + bound) // ell * ell, bound + 1, ell):
                for rest in expand(delta * ell, (left - r) // ell, digits - 1):
                    yield ((delta, r),) + rest

    return expand(base, total, 2)


def _digit_plans(canonical, ell: int, prec: int):
    """The plans that ``eta_quotient`` prices mod the prime ell for the
    ``canonical`` factors that ``_ell_rewrite`` returns: each class of
    ``_ell_classes`` written as there (so the canonical plan comes first)
    or as one of its ``_digit_expansions``, in every combination."""
    ways = []
    for base, total in _ell_classes(canonical, ell).items():
        own = tuple(f for f in canonical if _ell_free_part(f[0], ell) == base)
        ways.append(dict.fromkeys(chain([own], _digit_expansions(base, total, ell, prec))))
    for parts in product(*ways):
        yield tuple(sorted(chain(*parts)))


def _plan_steps(plan, prec: int):
    """(g, n, numerator, denominator) of the build of ``plan`` to ``prec``
    slots: g is the gcd of the deltas below prec (0 if none is, and the
    quotient is 1), so the quotient is built in q^g at n = ceil(prec/g)
    slots and spread back.  Each factor (delta, r) is written
    J_delta^a E_delta^b, with J_delta = E_delta^3 Jacobi's sparse sum and
    r = 3a + b, a and b of the sign of r and |b| <= 2.  The numerator and
    the denominator are lists of (delta/g, cube, power), largest delta
    first: their product to the power's sign is the quotient."""
    deltas = [delta for delta, _ in plan if delta < prec]
    g = gcd(*deltas)
    numerator, denominator = [], []
    for delta, r in sorted(plan, reverse=True):
        if delta < prec:
            a = r // 3 if r > 0 else -(-r // 3)
            for cube, e in ((True, a), (False, r - 3 * a)):
                if e:
                    side = numerator if e > 0 else denominator
                    side.append((delta // g, cube, abs(e)))
    return g, -(-prec // g) if g else 0, numerator, denominator


def _plan_cost(plan, prec: int, ring: CoefficientRing) -> float:
    """The predicted cost, in the one unit of the ``qseries`` prices, of
    building ``plan`` over Z/ell by ``_build_plan``: every product of the
    powers and of the numerator and denominator by
    ``_residue_product_cost``, at the length of the two factors' common
    lattice, and the division by ``_division_cost``, the cheaper of the
    recurrence and Newton, at the length the denominator's lattice sets.
    A series is priced from its lattice and its count of nonzero slots, a
    product's taken as the smaller of its length and the product of its
    factors' counts."""
    g, n, numerator, denominator = _plan_steps(plan, prec)
    if not g:
        return 0.0
    ell, cost = ring.modulus, 0.0

    def times(x, y):
        nonlocal cost
        d = gcd(x[0], y[0])
        slots, nnz = -(-n // d), min(x[1], y[1])
        cost += _residue_product_cost(slots, nnz, ring)
        return d, min(slots, x[1] * y[1])

    def power(delta: int, cube: bool, e: int):
        if cube:  # less the terms whose 2k + 1 is an odd multiple of ell
            nnz = _triangular_count(n, delta)
            if ell % 2:
                nnz -= ((2 * nnz - 1) // ell + 1) // 2
        else:
            nnz = len(_pentagonal_ks(n, delta))
        return _square_and_multiply((delta, nnz), e, times)

    top = reduce(times, (power(*step) for step in numerator)) if numerator else (0, 1)
    if denominator:
        lattice, nnz = reduce(times, (power(*step) for step in denominator))
        cost += _division_cost(nnz - 1, n, ring, lattice or 1, top[1])[0]
    return cost


def _build_plan(plan, prec: int, ring: CoefficientRing):
    """The slots of the product of E_delta^r over the (delta, r) of
    ``plan``, to ``prec`` slots, as ``_plan_steps`` lays it out: each
    sparse factor filled once, when first used; over Z/m the numerator
    divided once by the denominator, so ``/`` may pick Newton division;
    over Z (where ``/`` only runs the sparse recurrence) the numerator
    divided by each sparse factor in turn."""
    g, n, numerator, denominator = _plan_steps(plan, prec)
    if not g:
        return monomial(0, ring, prec).slots
    sparse: dict[tuple[int, bool], QSeries] = {}

    def power(delta: int, cube: bool, e: int) -> QSeries:
        if (delta, cube) not in sparse:
            fill = _jacobi_cube if cube else _euler_product
            sparse[delta, cube] = fill(n, delta, ring)
        return sparse[delta, cube] ** e if e > 1 else sparse[delta, cube]

    if numerator:
        out = reduce(mul, (power(*step) for step in numerator))
    else:
        out = monomial(0, ring, n)
    if ring.kind == "mod":
        if denominator:
            out = out / reduce(mul, (power(*step) for step in denominator))
    else:
        for delta, cube, e in denominator:
            for _ in range(e):
                out = out / power(delta, cube, 1)
    return out.substitute_power(g).slots[:prec]


def _pick_plan(spec: EtaQuotientSpec, prec: int, ring: CoefficientRing):
    """The plan ``eta_quotient`` builds: over Z/ell, ell prime, the
    cheapest of ``_digit_plans`` by ``_plan_cost`` (the canonical
    ``_ell_rewrite`` on a tie); in every other ring the factors as they
    are."""
    canonical, ell = _frobenius_factors(spec, ring), _frobenius_prime(ring)
    if ell is None:
        return canonical
    plans = _digit_plans(canonical, ell, prec)
    return min(plans, key=lambda plan: _plan_cost(plan, prec, ring))


def eta_quotient(
    spec: EtaQuotientSpec, prec: int, ring: CoefficientRing = INTEGER
) -> QSeries:
    """The q-expansion of prod eta(q^delta)^r: offset B/24, leading
    coefficient 1.

    Built from a plan, a list of (delta, r) factors whose product is the
    quotient (``_pick_plan``): over Z/ell, ell prime, the factors are
    rewritten by f(q)^ell = f(q^ell) into the plan predicted cheapest;
    elsewhere the plan is the factors as given.  Every E_delta^r with
    |r| >= 3 is built from Jacobi's sparse sum for E_delta^3, and the whole
    quotient in q^g, g the gcd of the plan's deltas (``_build_plan``).
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    slots = _build_plan(_pick_plan(spec, prec, ring), prec, ring)
    return QSeries._trusted(Fraction(spec.B, 24), slots, ring)


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
    ks = range(1, _pentagonal_ks(prec, 1).stop)  # the k >= 1 with k(3k+1)/2 < prec
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
    ns = range(_triangular_count(prec, 6))  # 3n(n+1) = 6 n(n+1)/2
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

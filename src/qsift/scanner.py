"""Congruence scanning: search arithmetic progressions of a series for
vanishing modulo a prime, certify non-vanishing by witness, and report
hypothesis checks for the eta-quotient non-congruence criterion.

A scan is one-sided: a Witness verdict certifies that the progression does
not vanish identically (the coefficient is stored and re-checkable), while a
Candidate verdict only records how far vanishing was observed -- it never
claims a congruence.

``scan_prefix`` (behind ``scan`` and ``scan_progression``) and ``witness``
run on one first-nonzero search, ``_first_nonzero``; ``_verdicts`` alone
turns its list into verdicts, tuple records in CSV column order.  Row n of
a modulus m is slots n*m to n*m + m - 1.  Every m reads its rows in blocks
that end at rows 8, 64, 512, ..., all m in step.  The slots a block
reaches are mapped to 0 or 1 (nonzero) once, by a ``translate`` of the
residue bytes, or ``bytes(map(bool, ...))`` for tuple slots.  Each residue
t without a witness yet is searched in the block by one strided slice and
one ``find``.  So Python runs once per block and open residue, never once
per slot: a true congruence costs a few C-level passes over its
progression, and a scan whose witnesses come early maps only the slots its
first blocks reach.  ``scan_progression`` and ``witness`` cut their
progression out of the series first, so they read no other slot.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, isqrt
from typing import NamedTuple

from .arith import prime_factors
from .generators import EtaQuotientSpec, level_mod_ell
from .qseries import QSeries, integer_mod
from .transform import BDivisibleBySix, Progression, q_divisor

__all__ = [
    "InsufficientPrecision",
    "ScanVerdict",
    "ScanReport",
    "Applicability",
    "scan",
    "scan_progression",
    "scan_prefix",
    "witness",
    "theorem_applies",
    "criterion_report",
    "sturm_bound",
    "verify_known",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 20000


class InsufficientPrecision(Exception):
    """The series does not hold enough coefficients for the request."""


class ScanVerdict(NamedTuple):
    """Outcome for one progression: status "witness" carries the first index
    n with a nonzero residue at slot m*n + t; status "candidate" carries the
    largest n checked (all residues vanished)."""

    m: int
    t: int
    status: str  # "witness" | "candidate"
    n: int | None = None
    value: int | None = None
    checked: int | None = None


def _json_int(x: int | None) -> str:
    return "null" if x is None else str(x)


@dataclass(frozen=True)
class ScanReport:
    series_name: str
    modulus: int
    m_max: int
    coeff_budget: int
    verdicts: tuple[ScanVerdict, ...]

    def candidates(self) -> list[ScanVerdict]:
        return [v for v in self.verdicts if v.status == "candidate"]

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2)`` writes it, byte for
        byte.  The header goes through ``json.dumps``; the verdict
        lines, which hold only integers and the status, are written
        directly, since the indenting encoder is pure Python."""
        header = {
            "series": self.series_name,
            "modulus": self.modulus,
            "m_max": self.m_max,
            "budget": self.coeff_budget,
        }
        head = json.dumps(header, indent=2)[:-2]  # without the closing "\n}"
        if not self.verdicts:
            return head + ',\n  "verdicts": []\n}'
        blocks = []
        for v in self.verdicts:
            if v.status == "witness":
                tail = f'"n": {_json_int(v.n)},\n      "value": {_json_int(v.value)}'
            else:
                tail = f'"checked": {_json_int(v.checked)}'
            blocks.append(
                f'\n    {{\n      "m": {v.m},\n      "t": {v.t},\n'
                f'      "status": {_json_str(v.status)},\n      {tail}\n    }}'
            )
        return head + ',\n  "verdicts": [' + ",".join(blocks) + "\n  ]\n}"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ScanVerdict._fields)
        writer.writerows(self.verdicts)  # csv writes None as the empty string
        return buf.getvalue()


@dataclass(frozen=True)
class Applicability:
    """Whether the non-congruence criterion covers (spec, ell, m); when it
    does not, ``reasons`` lists every failed hypothesis."""

    applies: bool
    reasons: tuple[str, ...]


_NONZERO = bytes([0]) + bytes([1]) * 255  # residue byte -> 1 if nonzero
_FIRST_ROWS = 8  # rows in the first block; each next block ends 8 times further on


def _first_nonzero(slots, m_max: int) -> list:
    """For every progression (m, t) with m <= m_max and 0 <= t < m, in
    scan order (m ascending, then t): the least n with ``slots[m*n + t]``
    nonzero, or None when every such slot is 0.  ``slots`` holds residues
    as a series stores them, ``bytes`` or a tuple.  See the module
    docstring for how the blocks are read."""
    first = [None] * (m_max * (m_max + 1) // 2)
    open_ts = {m: range(m) for m in range(1, m_max + 1)}
    prec, nonzero = len(slots), bytearray()
    lo, hi = 0, _FIRST_ROWS
    while open_ts:
        part = slots[len(nonzero) : hi * max(open_ts)]
        nonzero += part.translate(_NONZERO) if type(part) is bytes else bytes(map(bool, part))
        for m, ts in list(open_ts.items()):
            base, start, stop = m * (m - 1) // 2, lo * m, hi * m
            still = []
            for t in ts:
                i = nonzero[start + t : stop : m].find(1)
                if i < 0:
                    still.append(t)
                else:
                    first[base + t] = lo + i
            if still and stop < prec:
                open_ts[m] = still
            else:
                del open_ts[m]
        lo, hi = hi, hi * 8
    return first


def _verdicts(slots, m_max: int, first: list) -> tuple[ScanVerdict, ...]:
    """The verdict on every progression (m, t), m <= m_max, in scan order,
    from ``_first_nonzero(slots, m_max)``'s list ``first``: a witness at
    its first nonzero slot n, with that slot's residue, or a candidate
    checked to the last n that ``slots`` holds."""
    last, first = len(slots) - 1, iter(first)
    return tuple(
        ScanVerdict(m, t, "candidate", None, None, (last - t) // m)
        if (n := next(first)) is None
        else ScanVerdict(m, t, "witness", n, slots[m * n + t])
        for m in range(1, m_max + 1)
        for t in range(m)
    )


def _progression_residues(series: QSeries, ell: int, m: int, t: int, count: int):
    """Residues mod ell of slots m*n + t, n < count, stored as a series over
    Z/ell stores them.  The progression is cut out first, so only its slots
    are read and reduced."""
    part = series.slots[t : t + m * (count - 1) + 1 : m]
    return QSeries._trusted(Fraction(0), part, series.ring).reduce_mod(ell).slots


def witness(series: QSeries, ell: int, prog: Progression, n_max: int) -> int | None:
    """Smallest n <= n_max with slot m*n + t nonzero mod ell, or None.

    The series must hold at least m*n_max + t + 1 coefficients, and n_max
    must be nonnegative (a negative bound would read as "no witness").
    """
    m, t = prog.m, prog.t
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if series.prec < m * n_max + t + 1:
        raise InsufficientPrecision(
            f"need {m * n_max + t + 1} coefficients, have {series.prec}"
        )
    return _first_nonzero(_progression_residues(series, ell, m, t, n_max + 1), 1)[0]


def _check_m_max(series: QSeries, m_max: int) -> None:
    if m_max < 1:
        raise ValueError("m_max must be positive")
    if series.prec < m_max:
        raise InsufficientPrecision(
            f"need at least m_max={m_max} coefficients, have {series.prec}"
        )


def scan(series: QSeries, ell: int, m_max: int, series_name: str = "") -> ScanReport:
    """One verdict per progression (m, t), m <= m_max, 0 <= t < m, scanning
    m ascending then t ascending.  Witness searches run to the edge of the
    series precision."""
    return scan_prefix(series, ell, m_max, series.prec, series_name)


def scan_progression(
    series: QSeries, ell: int, prog: Progression, series_name: str = ""
) -> ScanReport:
    """The report ``scan`` with m_max = prog.m gives, kept to its verdict
    on ``prog`` alone: a witness search to the edge of the series
    precision.  Progression (1, 0) of the residues it cuts out is ``prog``."""
    return scan_prefix(series, ell, prog, series.prec, series_name)


def scan_prefix(
    series: QSeries,
    ell: int,
    target: int | Progression,
    budget: int,
    series_name: str = "",
) -> ScanReport | None:
    """The report of ``scan`` (``target`` an m_max) or ``scan_progression``
    (``target`` a progression) on a build of ``budget`` coefficients, read
    from ``series``, which holds the first ``series.prec`` of them.  None
    when ``series`` is shorter than the budget and some progression has no
    witness in it, so that its verdict needs the rest of the build.

    A witness is the least n with a nonzero slot, which any prefix holding
    it finds, so a report read from a prefix is the full build's.  A
    prefix that leaves a progression open builds no verdicts."""
    prog = target if isinstance(target, Progression) else None
    m_max = prog.m if prog else target
    _check_m_max(series, m_max)
    if series.prec > budget:
        raise ValueError(f"a budget of {budget} cannot hold {series.prec} coefficients")
    if prog is None:
        slots, m = series.reduce_mod(ell).slots, m_max
    else:
        n_max = (series.prec - 1 - prog.t) // prog.m
        slots, m = _progression_residues(series, ell, prog.m, prog.t, n_max + 1), 1
    first = _first_nonzero(slots, m)
    if series.prec < budget and None in first:
        return None
    verdicts = _verdicts(slots, m, first)
    if prog is not None:
        verdicts = (verdicts[0]._replace(m=prog.m, t=prog.t),)
    return ScanReport(series_name, ell, m_max, budget, verdicts)


def theorem_applies(spec: EtaQuotientSpec, ell: int, m: int) -> Applicability:
    """Hypothesis check of the non-congruence criterion for an eta-quotient:

    * ell must not divide B  ("ell-divides-B"),
    * the quotient must have a pole at infinity, i.e. B < 0  ("no-pole"),
    * the surviving divisor q_divisor(m, B) must be coprime to the ell-free
      part of the level ``generators.level_mod_ell`` gives
      ("q-divisor-shares-level").  With ell not dividing B that divisor is
      prime to ell, so the level itself can stand in for its ell-free part.
    """
    if ell not in (2, 3):
        raise ValueError("ell must be 2 or 3")
    if m < 1:
        raise ValueError("m must be positive")
    reasons = []
    B = spec.B
    if B % ell == 0:
        reasons.append("ell-divides-B")
    if B >= 0:
        reasons.append("no-pole")
    if B % ell != 0 and (divisor := q_divisor(m, B)) > 1:
        if gcd(divisor, level_mod_ell(spec, ell)[0]) != 1:
            reasons.append("q-divisor-shares-level")
    return Applicability(not reasons, tuple(reasons))


def criterion_report(spec: EtaQuotientSpec, ell: int, m: int) -> dict:
    """The eta-quotient's data and the criterion's reading of (spec, ell, m)
    as ``qsift info`` prints them: ``generators.level_mod_ell``, q_divisor
    (None when 6 | B), a budget hint and ``theorem_applies``.

    The hint, ``sturm_budget_hint``, is ``sturm_bound`` at |weight| and at
    the unrewritten level (the lcm of the deltas as written, not
    ``level_mod_ell``): the holomorphic Sturm bound, a heuristic for a scan
    budget and not a bound that proves anything, since the quotients the
    criterion accepts have a pole at infinity.  It is 0 at weight 0, as for
    ``1^-1,5^2,10^-1``."""
    applicability = theorem_applies(spec, ell, m)
    level, lattice = level_mod_ell(spec, ell)
    try:
        divisor = q_divisor(m, spec.B)
    except BDivisibleBySix:
        divisor = None
    return {
        "factors": [list(f) for f in spec.factors],
        "B": spec.B,
        "weight": str(Fraction(spec.weight_twice, 2)),
        "level": spec.level,
        "level_mod_ell": level,
        "lattice_mod_ell": lattice,
        "pole_at_infinity": spec.B < 0,
        "q_divisor": divisor,
        "sturm_budget_hint": sturm_bound(abs(spec.weight_twice), spec.level),
        "ell": ell,
        "m": m,
        "applies": applicability.applies,
        "reasons": list(applicability.reasons),
    }


def sturm_bound(k_twice: int, N: int) -> int:
    """Budget heuristic ceil((k/2) * index / 12) with the halved index
    convention index(N) = N^2 prod(1 - 1/p^2), which is 1 at N = 1 and 3 at
    N = 2.  The ceiling is taken in integers, exact at every level."""
    if N < 1:
        raise ValueError("N must be positive")
    index = N * N
    for p in prime_factors(N):
        index = index // (p * p) * (p * p - 1)
    return -(-k_twice * index // 24)


_CONGRUENCE_CLAIMS = (
    # claim id, catalog name, ell, m, the residues t, default n bound
    ("partition-mod5", "partition", 5, 5, (4,), 2000),
    ("cubic-mod3", "cubic", 3, 3, (2,), 1500),
    ("cphi2-mod2", "cphi2", 2, 2, (1,), 1500),
    ("cphi2-mod5", "cphi2", 5, 5, (3,), 1500),
    ("core4-mod2", "core4", 2, 9, (2,), 1500),
    ("crank-mod5", "crank_diff", 5, 5, (4,), 1500),
    ("eta5inv-mod2", "eta5inv", 2, 5, (1, 2, 3, 4), 1500),
)


def _omega_parity_js(prec: int) -> range:
    """The j in Z with 6j^2 + 4j < prec, omega's terms mod 2: (6j+2)^2 <=
    6(prec - 1) + 4, j >= 0 giving 6j + 2 and j < 0 giving 6|j| - 2."""
    root = isqrt(6 * (prec - 1) + 4)
    return range(-((root + 2) // 6), (root - 2) // 6 + 1)


def verify_known(bounds: dict[str, int] | None = None) -> list[tuple[str, bool]]:
    """Re-verify the hard-coded known congruences and parity facts, each up
    to its configured coefficient bound; returns (claim id, passed) pairs.
    A bound for an unknown claim id, or a negative bound, is a ValueError."""
    from .generators import build_series, mock_f, mock_omega

    claims = [c[0] for c in _CONGRUENCE_CLAIMS] + ["mockf-parity-mod2", "omega-parity-mod2"]
    bounds = bounds or {}
    if bad := {claim: b for claim, b in bounds.items() if claim not in claims or b < 0}:
        raise ValueError(f"unknown claim ids or negative bounds: {bad}; claim ids: {claims}")
    results = []

    for claim, name, ell, m, ts, default_bound in _CONGRUENCE_CLAIMS:
        bound = bounds.get(claim, default_bound)
        series = build_series(name, m * bound + max(ts) + 1, modulus=ell)
        ok = all(witness(series, ell, Progression(m, t), bound) is None for t in ts)
        results.append((claim, ok))

    bound = bounds.get("mockf-parity-mod2", 2000)
    f2 = mock_f(bound + 1, integer_mod(2))
    p2 = build_series("partition", bound + 1, modulus=2)
    results.append(("mockf-parity-mod2", f2.slots == p2.slots))

    bound = bounds.get("omega-parity-mod2", 2000)
    w2 = mock_omega(bound + 1, integer_mod(2))
    expected = bytearray(bound + 1)
    for j in _omega_parity_js(bound + 1):
        expected[6 * j * j + 4 * j] = 1
    results.append(("omega-parity-mod2", w2.slots == expected))

    return results

"""Congruence scanning: search arithmetic progressions of a series for
vanishing modulo a prime, certify non-vanishing by witness, and report
hypothesis checks for the eta-quotient non-congruence criterion.

A scan is one-sided: a Witness verdict certifies that the progression does
not vanish identically (the coefficient is stored and re-checkable), while a
Candidate verdict only records how far vanishing was observed -- it never
claims a congruence.  The criterion's reading of an eta-quotient,
``Applicability``, is its list of failed hypotheses alone: it applies
exactly when that list is empty.

``scan_prefix`` (behind ``scan`` and ``scan_progression``) and ``witness``
run on one first-nonzero search, ``_first_nonzero``.  A report writes
JSON and CSV from its list and slots, and builds the verdicts as tuple
records only when they are read.  Row n of a modulus m is slots n*m to
n*m + m - 1.  Every m reads its rows in blocks
that end at rows 8, 64, 512, ..., all m in step.  The slots a block
reaches are mapped to 0 or 1 (nonzero) once, by a ``translate`` of the
residue bytes, or ``bytes(map(bool, ...))`` for tuple slots.  Each residue
t without a witness yet is searched in the block by one strided slice and
one ``find``.  So Python runs once per block and open residue, never once
per slot: a true congruence costs a few C-level passes over its
progression, and a scan whose witnesses come early maps only the slots its
first blocks reach.  ``scan_progression`` and ``witness`` cut their
progression out of the series first, so they read no other slot.

``scan_prefix`` may start on a prefix of the build it reports on.  When a
block reaches the end of the prefix with a progression still open, the
search fetches the whole build once, through the ``rest`` it was given, and
goes on in that block for the open residues only: no slot is mapped twice
and no search starts again from slot 0.  A witness is the least n, and a
prefix is exact, so the report is the one a search of the whole build gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
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


@dataclass(frozen=True, eq=False)
class ScanReport:
    """A scan's header and its search's columns, from which both formats
    are written: ``_first_nonzero``'s list ``first`` and the ``slots`` it
    searched; for one progression ``prog``, its own slots, read as (1, 0).
    The ``ScanVerdict`` records are built only when ``verdicts`` is read;
    ``==`` and ``hash`` take the header and the records."""

    series_name: str
    modulus: int
    m_max: int
    coeff_budget: int
    first: list = field(repr=False)
    slots: bytes | tuple = field(repr=False)
    prog: Progression | None = None

    def _by_m(self):
        """(m, the m and t's its verdicts are named by, their n) per m."""
        if self.prog:
            return [(1, self.prog.m, [self.prog.t], self.first)]
        first, width = self.first, (isqrt(8 * len(self.first) + 1) - 1) // 2
        return ((m, m, range(m), first[m * (m - 1) // 2 : m * (m + 1) // 2])
                for m in range(1, width + 1))

    def _records(self, candidates_only: bool = False):
        """The records in scan order, or the candidates' alone."""
        slots, last = self.slots, len(self.slots) - 1
        for m, name_m, name_ts, ns in self._by_m():
            for name_t, t, n in zip(name_ts, range(m), ns):
                if n is None:
                    yield ScanVerdict(name_m, name_t, "candidate", None, None, (last - t) // m)
                elif not candidates_only:
                    yield ScanVerdict(name_m, name_t, "witness", n, slots[m * n + t])

    @cached_property
    def verdicts(self) -> tuple[ScanVerdict, ...]:
        return tuple(self._records())

    def candidates(self) -> list[ScanVerdict]:
        return list(self._records(candidates_only=True))

    def _key(self):
        return self.series_name, self.modulus, self.m_max, self.coeff_budget, self.verdicts

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ScanReport) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _write(self, head: str, witness: str, candidate: str, sep: str, tail: str) -> str:
        """``head``, the verdicts joined by ``sep``, then ``tail``: each as
        ``witness % m % (t, n, value)`` or ``candidate % m % (t, checked)``,
        and an m without a candidate as one ``%`` over its repeated
        witness template.  The text is joined once, with no copy after."""
        slots, last, blocks = self.slots, len(self.slots) - 1, []
        for m, name_m, name_ts, ns in self._by_m():
            witness_m = witness % name_m
            if None in ns:
                candidate_m = candidate % name_m
                blocks += (
                    candidate_m % (name_t, (last - t) // m)
                    if n is None
                    else witness_m % (name_t, n, slots[m * n + t])
                    for name_t, t, n in zip(name_ts, range(m), ns)
                )
            else:
                values = [slots[m * n + t] for t, n in enumerate(ns)]
                row = chain.from_iterable(zip(name_ts, ns, values))
                blocks.append(sep.join(repeat(witness_m, m)) % tuple(row))
        blocks[0] = head + blocks[0]  # one block may be both
        blocks[-1] += tail
        return sep.join(blocks)

    def to_json(self) -> str:
        """``json.dumps(..., indent=2)``'s text, without its slow encoder."""
        header = {"series": self.series_name, "modulus": self.modulus,
                  "m_max": self.m_max, "budget": self.coeff_budget}
        head = json.dumps(header, indent=2)[:-2]  # without the closing "\n}"
        verdict = '\n    {\n      "m": %d,\n      "t": %%d,\n      "status": '
        return self._write(
            head + ',\n  "verdicts": [',
            verdict + '"witness",\n      "n": %%d,\n      "value": %%d\n    }',
            verdict + '"candidate",\n      "checked": %%d\n    }',
            ",",
            "\n  ]\n}",
        )

    def to_csv(self) -> str:
        """The rows ``csv.writer`` writes for the records, None as ''."""
        return self._write(
            "m,t,status,n,value,checked\n",
            "%d,%%d,witness,%%d,%%d,\n",
            "%d,%%d,candidate,,,%%d\n",
            "",
            "",
        )


@dataclass(frozen=True)
class Applicability:
    """Whether the non-congruence criterion covers (spec, ell, m):
    ``reasons`` lists every failed hypothesis, and it applies when there is
    none."""

    reasons: tuple[str, ...]

    @property
    def applies(self) -> bool:
        return not self.reasons


# theorem_applies's six possible answers, by their reasons
_APPLICABILITY = {
    reasons: Applicability(reasons)
    for no_pole in ((), ("no-pole",))
    for reasons in (
        ("ell-divides-B", *no_pole),
        (*no_pole, "q-divisor-shares-level"),
        no_pole,
    )
}

_NONZERO = bytes([0]) + bytes([1]) * 255  # residue byte -> 1 if nonzero
_FIRST_ROWS = 8  # rows in the first block; each next block ends 8 times further on


def _first_nonzero(slots, m_max: int, rest=None) -> tuple[list, object]:
    """For every progression (m, t) with m <= m_max and 0 <= t < m, in
    scan order (m ascending, then t): the least n with ``slots[m*n + t]``
    nonzero, or None when every such slot is 0; and the slots searched.
    ``slots`` holds residues as a series stores them, ``bytes`` or a tuple.

    ``rest()``, when given, returns the residues of a longer build, of
    which ``slots`` is an exact prefix.  It is called at most once, when a
    block has read the last slot of ``slots`` of a progression still
    without a witness.  The search then goes on in that block, on the
    longer slots, for the residues still open, and returns those slots.
    See the module docstring for how the blocks are read."""
    first = [None] * (m_max * (m_max + 1) // 2)
    open_ts = {m: range(m) for m in range(1, m_max + 1)}
    nonzero, ms = bytearray(), list(open_ts)
    lo, hi = 0, _FIRST_ROWS
    while ms:
        part = slots[len(nonzero) : hi * ms[-1]]
        nonzero += part.translate(_NONZERO) if type(part) is bytes else bytes(map(bool, part))
        short = []  # the m with residues open to the end of ``slots``
        for m in ms:
            base, start, stop = m * (m - 1) // 2, lo * m, hi * m
            still = []
            for t in open_ts[m]:
                i = nonzero[start + t : stop : m].find(1)
                if i < 0:
                    still.append(t)
                else:
                    first[base + t] = lo + i
            if not still or (stop >= len(slots) and not rest):
                del open_ts[m]
            else:
                open_ts[m] = still
                if stop >= len(slots):
                    short.append(m)
        if short:  # the same block again, for these m only
            slots, rest, ms = rest(), None, short
        else:
            lo, hi, ms = hi, hi * 8, list(open_ts)
    return first, slots


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
    part = series.slots[t : t + m * n_max + 1 : m]  # only the progression is reduced
    residues = QSeries._trusted(Fraction(0), part, series.ring).reduce_mod(ell).slots
    return _first_nonzero(residues, 1)[0][0]


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
    rest=None,
) -> ScanReport:
    """The report of ``scan`` (``target`` an m_max) or ``scan_progression``
    (``target`` a progression) on a build of ``budget`` coefficients, read
    from ``series``, which holds the first ``series.prec`` of them.
    ``rest()``, when given, returns the whole build.  It is called only
    when some progression has no witness in ``series``, and the search goes
    on into it from the block where it stands.  Without ``rest``, a
    ``series`` shorter than the budget that leaves a progression open
    raises InsufficientPrecision, since that verdict needs the rest."""
    prog = target if isinstance(target, Progression) else None
    m_max = prog.m if prog else target
    if m_max < 1:
        raise ValueError("m_max must be positive")
    if series.prec < m_max:
        raise InsufficientPrecision(
            f"need at least m_max={m_max} coefficients, have {series.prec}"
        )
    if series.prec > budget:
        raise ValueError(f"a budget of {budget} cannot hold {series.prec} coefficients")

    def residues(build: QSeries):  # mod ell; for one progression, of its slots alone
        return (build.extract_progression(prog.m, prog.t) if prog else build).reduce_mod(ell).slots

    m = 1 if prog else m_max
    first, slots = _first_nonzero(residues(series), m, rest and (lambda: residues(rest())))
    if rest is None and series.prec < budget and None in first:
        raise InsufficientPrecision(
            f"{series.prec} of {budget} coefficients leave a progression open"
        )
    return ScanReport(series_name, ell, m_max, budget, first, slots, prog)


def theorem_applies(spec: EtaQuotientSpec, ell: int, m: int) -> Applicability:
    """Hypothesis check of the non-congruence criterion for an eta-quotient:

    * ell must not divide B  ("ell-divides-B"),
    * the quotient must have a pole at infinity, i.e. B < 0  ("no-pole"),
    * the surviving divisor q_divisor(m, B) must be coprime to the ell-free
      part of the level ``generators.level_mod_ell`` gives
      ("q-divisor-shares-level").  With ell not dividing B that divisor is
      prime to ell, so the level itself can stand in for its ell-free part.

    The reasons keep that order, and the third is only asked when ell does
    not divide B, so six lists can come out; each is one shared value.
    """
    if ell not in (2, 3):
        raise ValueError("ell must be 2 or 3")
    if m < 1:
        raise ValueError("m must be positive")
    B = spec.B
    no_pole = ("no-pole",) if B >= 0 else ()
    if B % ell == 0:
        return _APPLICABILITY[("ell-divides-B", *no_pole)]
    if (divisor := q_divisor(m, B)) > 1 and gcd(divisor, level_mod_ell(spec, ell)[0]) != 1:
        return _APPLICABILITY[(*no_pole, "q-divisor-shares-level")]
    return _APPLICABILITY[no_pole]


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

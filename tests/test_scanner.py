"""Tests for scanning, verdicts, applicability, and report serialization."""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import pickle
import random
from itertools import combinations, product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsift.scanner
from qsift.generators import (
    EtaQuotientSpec,
    _frobenius_factors,
    build_series,
    catalog_entry,
    eta_quotient,
    level_mod_ell,
    mock_f,
    mock_omega,
)
from qsift.qseries import INTEGER, QSeries, integer_mod
from qsift.scanner import (
    Applicability,
    InsufficientPrecision,
    ScanReport,
    ScanVerdict,
    scan,
    scan_prefix,
    scan_progression,
    sturm_bound,
    theorem_applies,
    verify_known,
    witness,
)
from qsift.transform import Progression, is_good, orbit, q_divisor, refine_to_good


# ------------------------------------------------------------------ scan


def test_scan_partition_mod5():
    series = build_series("partition", 800, modulus=5)
    report = scan(series, 5, 5, series_name="partition")
    assert len(report.verdicts) == 1 + 2 + 3 + 4 + 5
    candidates = report.candidates()
    assert [(v.m, v.t) for v in candidates] == [(5, 4)]
    assert candidates[0].checked == (800 - 1 - 4) // 5
    for v in report.verdicts:
        if v.status == "witness":
            assert v.value is not None and v.value % 5 != 0


def test_scan_cubic_mod3():
    series = build_series("cubic", 600, modulus=3)
    report = scan(series, 3, 3, series_name="cubic")
    assert [(v.m, v.t) for v in report.candidates()] == [(3, 2)]


def test_scan_mock_f_mod3_all_witnesses():
    series = mock_f(2500, integer_mod(3))
    report = scan(series, 3, 10, series_name="mock_f")
    assert not report.candidates()


def test_scan_m_max_one():
    series = build_series("partition", 10, modulus=5)
    report = scan(series, 5, 1)
    assert len(report.verdicts) == 1
    assert report.verdicts[0].status == "witness"
    assert report.verdicts[0].n == 0

    zero = series - series
    report = scan(zero, 5, 1)
    assert report.verdicts[0].status == "candidate"


def test_scan_ordering_canonical():
    series = mock_f(300, integer_mod(3))
    report = scan(series, 3, 6)
    assert [(v.m, v.t) for v in report.verdicts] == [
        (m, t) for m in range(1, 7) for t in range(m)
    ]


def test_scan_insufficient_precision():
    series = mock_f(5, integer_mod(3))
    with pytest.raises(InsufficientPrecision):
        scan(series, 3, 10)


def test_scan_accepts_integer_ring():
    series = build_series("partition", 100)
    report = scan(series, 5, 2)
    assert report.modulus == 5


# --------------------------------------------------------------- witness


def test_witness_omega_mod2_first_slot():
    series = mock_omega(50)
    assert witness(series, 2, Progression(1, 0), 40) == 0  # c(0) = 1 is odd


def test_witness_absent_for_known_congruences():
    eta5 = build_series("eta5inv", 501, modulus=2)
    for r in (1, 2, 3, 4):
        assert witness(eta5, 2, Progression(5, r), 99) is None
    part = build_series("partition", 1005, modulus=5)
    assert witness(part, 5, Progression(5, 4), 200) is None


def test_witness_rejects_a_negative_bound():
    # a negative bound must not read as "no witness" (None)
    part = build_series("partition", 100, modulus=5)
    assert witness(part, 5, Progression(5, 0), 0) == 0
    with pytest.raises(ValueError):
        witness(part, 5, Progression(5, 0), -1)


def test_witness_insufficient_precision():
    with pytest.raises(InsufficientPrecision):
        witness(mock_f(10), 3, Progression(3, 1), 5)


def test_witness_reverifies_independently():
    # recompute each witnessed coefficient from a fresh, higher-precision
    # integer-ring construction
    series = build_series("partition", 120, modulus=5)
    report = scan(series, 5, 4, series_name="partition")
    fresh = build_series("partition", 200)
    for v in report.verdicts:
        assert v.status == "witness"
        index = v.m * v.n + v.t
        assert fresh.coeffs[index] % 5 == v.value
        for n in range(v.n):
            assert fresh.coeffs[v.m * n + v.t] % 5 == 0


def test_refinement_keeps_witness_reachable():
    series = mock_f(4000, integer_mod(3))
    for m, t in ((4, 1), (6, 5), (8, 3)):
        p = Progression(m, t)
        assert not is_good(p, "f")
        refined = refine_to_good(p, "f")
        n0 = witness(series, 3, p, 50)
        assert n0 is not None
        n1 = witness(series, 3, refined, (series.prec - 1 - refined.t) // refined.m)
        assert n1 is not None
        # the refined progression is a subsequence of the original
        assert refined.t % m == t


# ------------------------------------------------- the first-nonzero search


@st.composite
def _scan_cases(draw):
    """(ell, over Z?, coefficients, m_max, m, t, n_max).  Residue bytes for
    ell = 2, 3, 5 and 256, from a series over Z/ell or over Z; tuple slots
    for ell = 257, from a series over Z.  The series is all zero, has one
    nonzero slot, a few slots (some of them nonzero over Z but 0 mod ell),
    or is dense; m <= m_max <= prec, t < m and n_max reaches at most the
    last slot of (m, t)."""
    ell = draw(st.sampled_from((2, 3, 5, 256, 257)))
    over_z = ell == 257 or draw(st.booleans())
    prec = draw(st.integers(1, 40) | st.integers(1, 3000))
    values = st.integers(-(10**30), 10**30) | st.integers(-(10**6), 10**6).map(
        lambda k: k * ell
    )
    coeffs = [0] * prec
    shape = draw(st.sampled_from(("zero", "one", "few", "dense")))
    if shape == "one":
        coeffs[draw(st.integers(0, prec - 1))] = draw(values.filter(lambda c: c % ell))
    elif shape == "few":
        for k in draw(st.lists(st.integers(0, prec - 1), max_size=8)):
            coeffs[k] = draw(values)
    elif shape == "dense":
        rng = random.Random(draw(st.integers(0, 2**32)))
        coeffs = [rng.randrange(-3 * ell, 3 * ell) for _ in range(prec)]
    m_max = draw(st.integers(1, min(prec, 40)))
    m = draw(st.integers(1, m_max))
    t = draw(st.integers(0, m - 1))
    n_max = draw(st.integers(0, (prec - 1 - t) // m))
    return ell, over_z, coeffs, m_max, m, t, n_max


@settings(max_examples=300, deadline=None)
@given(case=_scan_cases())
@example(case=(2, False, [0] * 10, 3, 3, 2, 2))  # all zero; 10 slots, m = 3
@example(case=(5, False, [0] * 7 + [3] + [0] * 12, 4, 4, 3, 4))  # one nonzero slot
@example(case=(3, False, [0, 0, 2, 0, 0, 1], 6, 6, 5, 0))  # prec == m_max
@example(case=(3, False, [0] * 8 + [2], 1, 1, 0, 8))  # the slot after the first block
@example(case=(256, True, [0] * 30 + [768] + [0] * 11 + [255], 7, 7, 6, 5))
@example(case=(257, True, [0, 514, 0, 0, 0, 0, 0, -1], 5, 3, 1, 2))  # 514 = 0 mod 257
def test_scans_match_the_slot_by_slot_oracle(case, scan_verdict_oracle):
    ell, over_z, coeffs, m_max, m, t, n_max = case
    series = QSeries(0, coeffs, INTEGER if over_z else integer_mod(ell))
    residues, prec = [c % ell for c in coeffs], len(coeffs)

    def oracle(m: int, t: int, n_max: int) -> ScanVerdict:
        return scan_verdict_oracle(residues, m, t, n_max)

    expected = [oracle(k, u, (prec - 1 - u) // k) for k in range(1, m_max + 1) for u in range(k)]
    assert list(scan(series, ell, m_max).verdicts) == expected
    prog = Progression(m, t)
    assert scan_progression(series, ell, prog).verdicts == (oracle(m, t, (prec - 1 - t) // m),)
    assert witness(series, ell, prog, n_max) == oracle(m, t, n_max).n


@settings(max_examples=200, deadline=None)
@given(case=_scan_cases(), cut=st.floats(0, 1))
# (3, 2) is open at the end of a 100-slot prefix, and its witness, slot 122,
# lies in the block of rows 8 to 63 that straddles that end
@example(case=(3, False, [0 if k % 3 == 2 and k < 122 else 1 for k in range(300)], 3, 3, 2, 45),
         cut=97 / 297)
# the prefix ends on a block boundary, 8 * m_max slots, with (4, 3) open there
@example(case=(5, False, [0 if k % 4 == 3 and k < 43 else 1 for k in range(200)], 4, 4, 3, 20),
         cut=1 / 7)
def test_a_prefix_and_its_rest_give_the_full_report(case, cut):
    ell, over_z, coeffs, m_max, m, t, _ = case
    ring = INTEGER if over_z else integer_mod(ell)
    series, prec = QSeries(0, coeffs, ring), len(coeffs)
    prefix = QSeries(0, coeffs[: m_max + round(cut * (prec - m_max))], ring)
    short = prefix.prec < prec
    for target, full in (
        (m_max, scan(series, ell, m_max)),
        (Progression(m, t), scan_progression(series, ell, Progression(m, t))),
    ):
        open_ = any(v.n is None or v.m * v.n + v.t >= prefix.prec for v in full.verdicts)
        calls = []

        def rest():
            calls.append(prec)
            return series

        assert scan_prefix(prefix, ell, target, prec, rest=rest if short else None) == full
        assert calls == [prec] * (open_ and short)  # once, exactly when needed
        if open_ and short:  # without the rest, that verdict is unknown
            with pytest.raises(InsufficientPrecision):
                scan_prefix(prefix, ell, target, prec)
        else:
            assert scan_prefix(prefix, ell, target, prec) == full
    with pytest.raises(ValueError):  # a budget below the slots it would read
        scan_prefix(series, ell, m_max, prec - 1)


def omega_mod2_predicted(prec: int, m_max: int) -> tuple[ScanVerdict, ...]:
    """The verdicts of ``scan(mock_omega(prec, Z/2), 2, m_max)`` that
    omega = sum over j in Z of q^(6j^2 + 4j) (mod 2) predicts
    (``verify_known``'s omega-parity-mod2): (m, t) has a witness, of value
    1, at the least exponent e = t (mod m) below prec, n = e // m, and is a
    candidate when there is none."""
    bound = isqrt(prec // 6) + 1
    exponents = sorted(e for j in range(-bound, bound + 1) if (e := 6 * j * j + 4 * j) < prec)
    predicted = []
    for m in range(1, m_max + 1):
        first: dict[int, int] = {}
        for e in exponents:  # ascending: the first e of each class is its least
            first.setdefault(e % m, e // m)
        for t in range(m):
            n = first.get(t)
            if n is None:
                predicted.append(ScanVerdict(m, t, "candidate", checked=(prec - 1 - t) // m))
            else:
                predicted.append(ScanVerdict(m, t, "witness", n=n, value=1))
    return tuple(predicted)


def test_omega_mod2_verdicts_follow_its_sparse_form():
    # the generator, the scanner and verify_known's sparse form agree on
    # every progression: the status, and for a witness its n
    prec, m_max = 5000, 60
    report = scan(mock_omega(prec, integer_mod(2)), 2, m_max)
    predicted = omega_mod2_predicted(prec, m_max)
    assert report.verdicts == predicted
    assert 0 < len(report.candidates()) < len(predicted)


# ----------------------------------------------------------- theorem gate


def test_applicability_is_its_reasons():
    # applies is derived, so an answer and its reasons cannot disagree
    assert [f.name for f in dataclasses.fields(Applicability)] == ["reasons"]
    assert Applicability(()).applies
    assert not Applicability(("no-pole",)).applies
    with pytest.raises(TypeError):
        Applicability(True, ("no-pole",))


def test_applicability_cubic():
    spec = catalog_entry("cubic").spec
    blocked = theorem_applies(spec, 3, 5)
    assert not blocked.applies and "ell-divides-B" in blocked.reasons
    assert theorem_applies(spec, 2, 5).applies


def test_applicability_core4():
    spec = catalog_entry("core4").spec
    for ell in (2, 3):
        result = theorem_applies(spec, ell, 5)
        assert not result.applies
        assert "no-pole" in result.reasons


def test_applicability_crank():
    spec = catalog_entry("crank_diff").spec
    for ell in (2, 3):
        for m in (2, 3, 5, 7, 10, 12):
            assert theorem_applies(spec, ell, m).applies


def test_applicability_multipartitions():
    two = catalog_entry("multipartition_2").spec
    three = catalog_entry("multipartition_3").spec
    assert theorem_applies(two, 3, 7).applies
    assert not theorem_applies(two, 2, 7).applies
    assert theorem_applies(three, 2, 7).applies
    assert not theorem_applies(three, 3, 7).applies


def test_applicability_cphi2():
    spec = catalog_entry("cphi2").spec
    assert theorem_applies(spec, 3, 5).applies  # odd m
    result = theorem_applies(spec, 3, 6)  # even m blocked by the 2-part
    assert not result.applies and "q-divisor-shares-level" in result.reasons


def test_applicability_eta5inv():
    spec = catalog_entry("eta5inv").spec
    result = theorem_applies(spec, 2, 5)
    assert not result.applies and "q-divisor-shares-level" in result.reasons
    assert theorem_applies(spec, 2, 7).applies


def test_applicability_level_rewrite():
    # cubic at ell=2: the level-2 factor rewrites away, so every m passes
    # the level condition (including even m)
    spec = catalog_entry("cubic").spec
    assert theorem_applies(spec, 2, 10).applies


def test_applicability_drops_a_cancelled_class():
    # mod 2, eta(q^5)^2 = eta(q^10): with 10^-1 the class of 5 cancels and
    # 1^-1 is left, of level 1; with 10^-2 it leaves 20^-1, of level 5
    assert theorem_applies(EtaQuotientSpec(((1, -1), (5, 2), (10, -1))), 2, 5).applies
    blocked = theorem_applies(EtaQuotientSpec(((1, -1), (5, 2), (10, -2))), 2, 5)
    assert blocked.reasons == ("q-divisor-shares-level",)


def _class_totals(factors, ell: int) -> dict[int, int]:
    """sum(ell^s r) per ell-free part d' of the deltas ell^s d', zeros kept
    out: what f(q)^ell = f(q^ell) leaves unchanged in each class."""
    totals: dict[int, int] = {}
    for delta, r in factors:
        while delta % ell == 0:
            delta, r = delta // ell, r * ell
        totals[delta] = totals.get(delta, 0) + r
    return {d: r for d, r in totals.items() if r}


@st.composite
def _rewrite_cases(draw):
    """(spec, ell, m): deltas d' ell^s over few ell-free parts d', and half
    the time one more factor that cancels a class, sum(ell^s r) = 0."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    exponents = st.sampled_from((1, 2, 3, 4, 6, 8, 9, -1, -2, -3, -4, -6, -8, -9))
    bases, powers = st.sampled_from((1, 2, 3, 5, 7, 10)), st.integers(0, 2)
    factors = {}
    for _ in range(draw(st.integers(1, 3))):
        factors[draw(bases) * ell ** draw(powers)] = draw(exponents)
    base, total = next(iter(_class_totals(factors.items(), ell).items()), (1, 0))
    if total and draw(st.booleans()):
        for s in range(4):
            if base * ell**s not in factors and total % ell**s == 0:
                factors[base * ell**s] = -total // ell**s
                break
    spec = EtaQuotientSpec(tuple(factors.items()))
    return spec, ell, draw(st.integers(1, 8)) * draw(st.sampled_from((1, 5, 7)))


@settings(max_examples=400, deadline=None)
@given(case=_rewrite_cases())
def test_one_rewrite_for_the_build_and_the_criterion(case, ell_level_oracle):
    spec, ell, m = case
    rewritten = _frobenius_factors(spec, integer_mod(ell))
    assert all(r % ell for _, r in rewritten)
    assert sum(d * r for d, r in rewritten) == spec.B
    assert _class_totals(rewritten, ell) == _class_totals(spec.factors, ell)
    if ell in (2, 3):
        B = spec.B
        expected = ["ell-divides-B"] if B % ell == 0 else []
        expected += ["no-pole"] if B >= 0 else []
        if B % ell and gcd(q_divisor(m, B), ell_level_oracle(spec.factors, ell)) > 1:
            expected.append("q-divisor-shares-level")
        assert theorem_applies(spec, ell, m).reasons == tuple(expected)


def _ell_free(n: int, ell: int) -> int:
    while n and n % ell == 0:
        n //= ell
    return n


@settings(max_examples=400, deadline=None)
@given(case=_rewrite_cases())
def test_level_mod_ell_matches_the_oracles(case, ell_level_oracle, ell_lattice_oracle):
    spec, ell, _ = case
    deltas = [d for d, _ in _frobenius_factors(spec, integer_mod(ell))]
    level, lattice = level_mod_ell(spec, ell)
    assert (level, lattice) == (lcm(*deltas), gcd(*deltas))
    assert _ell_free(level, ell) == ell_level_oracle(spec.factors, ell)
    assert _ell_free(lattice, ell) == ell_lattice_oracle(spec.factors, ell)


def test_theorem_applies_rewrites_only_when_a_divisor_survives(monkeypatch):
    # the rewrite is the costly step of the gate: it runs for q_divisor > 1 only
    calls = []
    real = qsift.scanner.level_mod_ell
    monkeypatch.setattr(
        qsift.scanner, "level_mod_ell", lambda *a: calls.append(a) or real(*a)
    )
    for name in ("partition", "cubic", "cphi2", "eta5inv"):
        spec = catalog_entry(name).spec
        for ell in (2, 3):
            for m in range(1, 31):
                calls.clear()
                theorem_applies(spec, ell, m)
                rewrites = spec.B % ell != 0 and q_divisor(m, spec.B) > 1
                assert calls == ([(spec, ell)] if rewrites else []), (name, ell, m)


def test_theorem_applies_matches_the_listed_hypotheses(theorem_applies_oracle):
    # the benchmark's sweep domain: every two-factor eta-quotient of level
    # <= 12 with exponents +-1..+-4, ell in (2, 3), m <= 12; then specs
    # with 6 | B, where q_divisor is undefined, to m = 60
    exponents = (-4, -3, -2, -1, 1, 2, 3, 4)
    sweep = list(eta_quotient_specs(2, range(1, 13), exponents, 12))
    six = [
        EtaQuotientSpec(factors)
        for factors in (
            ((1, 6),),
            ((1, -6),),
            ((2, -3),),
            ((1, -12), (2, 3)),
            ((3, -2), (6, 2)),
            ((1, 2), (5, -3), (7, 1)),
        )
    ]
    assert len(sweep) == 1728 and all(spec.B % 6 == 0 for spec in six)
    cases = [(spec, ell, m) for spec in sweep for ell in (2, 3) for m in range(1, 13)]
    cases += [(spec, ell, m) for spec in six for ell in (2, 3) for m in range(1, 61)]
    answers = {}
    for case in cases:
        got = theorem_applies(*case)
        assert got == theorem_applies_oracle(*case), case
        assert answers.setdefault(got.reasons, got) is got, case
    assert set(answers) == {
        (),
        ("ell-divides-B",),
        ("no-pole",),
        ("ell-divides-B", "no-pole"),
        ("q-divisor-shares-level",),
        ("no-pole", "q-divisor-shares-level"),
    }


def test_shared_applicabilities_survive_copies():
    # one value per reasons tuple, shared by every call: it cannot be
    # changed in place, and a copy of it is an equal, separate value
    spec = EtaQuotientSpec(((1, -1),))
    shared = theorem_applies(spec, 2, 5)
    assert theorem_applies(spec, 3, 7) is shared and shared == Applicability(())
    for copied in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
        assert copied == shared and copied.applies
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.reasons = ("no-pole",)
    assert theorem_applies(spec, 2, 5).reasons == ()


def eta_quotient_specs(factors: int, deltas, exponents, max_level: int):
    """Every eta-quotient with ``factors`` distinct deltas from ``deltas``,
    each exponent from ``exponents``, and level at most ``max_level``."""
    for ds in combinations(deltas, factors):
        if lcm(*ds) <= max_level:
            for rs in product(exponents, repeat=factors):
                yield EtaQuotientSpec(tuple(zip(ds, rs)))


def criterion_sweep(specs, prec: int = 2000, m_max: int = 12):
    """Scan ``eta_quotient(spec, prec, Z/ell)`` mod ell wherever
    ``theorem_applies(spec, ell, m)`` accepts, ell in (2, 3), m <= m_max:
    (accepted triples, progressions scanned, the (spec, ell, m, t) whose
    progression found no witness)."""
    accepted = progressions = 0
    missing = []
    for spec in specs:
        for ell in (2, 3):
            ms = [
                m for m in range(1, m_max + 1) if theorem_applies(spec, ell, m).applies
            ]
            if not ms:
                continue
            report = scan(eta_quotient(spec, prec, integer_mod(ell)), ell, max(ms))
            accepted += len(ms)
            for v in report.verdicts:
                if v.m in ms:
                    progressions += 1
                    if v.status != "witness":
                        missing.append((str(spec), ell, v.m, v.t))
    return accepted, progressions, missing


def test_criterion_acceptance_implies_witnesses():
    # every one- and two-factor eta-quotient of level <= 12 with exponents
    # +-1..+-4: where the criterion accepts (ell, m), no progression mod m
    # vanishes mod ell to 2000 coefficients
    exponents = (-4, -3, -2, -1, 1, 2, 3, 4)
    specs = [
        spec
        for factors in (1, 2)
        for spec in eta_quotient_specs(factors, range(1, 13), exponents, 12)
    ]
    accepted, progressions, missing = criterion_sweep(specs)
    assert (len(specs), accepted, progressions) == (1824, 7476, 46959)
    assert missing == []


ORBIT_ETA_QUOTIENTS = (
    "partition",
    "multipartition_2",
    "multipartition_3",
    "cubic",
    "crank_diff",
    "cphi2",
    "core4",
    "eta5inv",
)


def test_verdicts_are_constant_on_unit_orbits():
    # t and every residue of transform.orbit(Progression(m, t)) are all
    # witnesses or all candidates, m <= 12, at 4000 coefficients; no B
    # below is divisible by 6.  The candidates keep the check from being
    # all witnesses.
    cases = [("mock_f", "f", None), ("mock_omega", "omega", None)]
    cases += [(name, "eta", catalog_entry(name).spec.B) for name in ORBIT_ETA_QUOTIENTS]
    candidates, mixed = {}, []
    for name, kind, B in cases:
        for ell in (2, 3):
            report = scan(build_series(name, 4000, ell), ell, 12)
            status = {(v.m, v.t): v.status for v in report.verdicts}
            for (m, t), own in status.items():
                if any(status[m, u] != own for u in orbit(Progression(m, t), kind, B)):
                    mixed.append((name, ell, m, t))
            if report.candidates():
                candidates[name, ell] = len(report.candidates())
    assert mixed == []
    assert candidates == {
        ("mock_omega", 2): 35,
        ("multipartition_2", 2): 21,
        ("multipartition_3", 3): 20,
        ("cubic", 3): 10,
        ("cphi2", 2): 21,
        ("core4", 2): 2,
        ("eta5inv", 2): 12,
        ("eta5inv", 3): 12,
    }


# ----------------------------------------------------------- sturm bound


def test_sturm_examples():
    assert sturm_bound(24, 1) == 1
    assert sturm_bound(24, 5) == 24


def test_sturm_exact_at_a_large_prime_level():
    # (N^2 - 1)/24 exactly; a float division loses the last digits
    N = 1000000007
    assert sturm_bound(1, N) == (N * N - 1) // 24 == 41666667250000002
    assert sturm_bound(2, 3 * N) == 2 * (N * N - 1) // 3  # index 8 (N^2 - 1)


def test_sturm_small_levels():
    assert sturm_bound(24, 2) == 3
    assert sturm_bound(1, 1) == 1


def test_sturm_monotone():
    values = {}
    for k in (1, 2, 4, 8, 16):
        for n in (1, 2, 3, 4, 5, 6, 10):
            values[k, n] = sturm_bound(k, n)
    for k1 in (1, 2, 4, 8):
        assert values[k1, 5] <= values[2 * k1, 5]
    for n1, n2 in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 10)):
        assert values[16, n1] <= values[16, n2]


# ---------------------------------------------------------- verify_known


def test_verify_known_quick():
    bounds = {claim: 120 for claim in (
        "partition-mod5", "cubic-mod3", "cphi2-mod2", "cphi2-mod5",
        "core4-mod2", "crank-mod5", "eta5inv-mod2",
        "mockf-parity-mod2", "omega-parity-mod2",
    )}
    results = verify_known(bounds)
    assert len(results) == 9
    assert all(ok for _, ok in results), results


def test_verify_known_rejects_an_unknown_claim_id():
    with pytest.raises(ValueError, match="{'no-such-claim': 5}"):
        verify_known({"no-such-claim": 5})


def test_verify_known_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="{'cubic-mod3': -1}"):
        verify_known({"partition-mod5": 10, "cubic-mod3": -1})


# ----------------------------------------------------------- serialization


def test_report_json_contract():
    series = build_series("partition", 400, modulus=5)
    report = scan(series, 5, 5, series_name="partition")
    payload = json.loads(report.to_json())
    assert set(payload) == {"series", "modulus", "m_max", "budget", "verdicts"}
    assert payload["series"] == "partition"
    assert payload["modulus"] == 5
    assert payload["m_max"] == 5
    assert payload["budget"] == 400
    for entry in payload["verdicts"]:
        assert entry["status"] in ("witness", "candidate")
        if entry["status"] == "witness":
            assert set(entry) == {"m", "t", "status", "n", "value"}
        else:
            assert set(entry) == {"m", "t", "status", "checked"}


# names that need escapes in JSON, or are not ASCII, beside arbitrary text
NAMES = st.text() | st.sampled_from(
    ['a"b', "back\\slash", "tab\tline\n", "\x00\x1f\x7f", "ω/π", "\U0001d4bb", "\u2028"]
)
# a header's modulus and bounds, far beyond any scan's, of either sign
BIG = st.integers() | st.integers(min_value=-(10**80), max_value=10**80)


@st.composite
def report_columns(draw):
    """(first, slots, prog), columns as ``scan_prefix`` gives a report:
    residue bytes, or tuple slots as for ell > 256, and for each (m, t) of
    the search a witness n within the slots or None, a candidate; with
    ``prog``, one entry, for the progression's own slots."""
    prog = draw(st.none() | st.builds(Progression, st.integers(1, 40), st.integers(0, 39)))
    width = 1 if prog else draw(st.integers(1, 6))
    if draw(st.booleans()):
        slots = draw(st.binary(min_size=width, max_size=40))
    else:
        ell = draw(st.integers(257, 10**12))
        slots = tuple(draw(st.lists(st.integers(0, ell - 1), min_size=width, max_size=40)))
    first = [
        draw(st.none() | st.integers(0, (len(slots) - 1 - t) // m))
        for m in range(1, width + 1)
        for t in range(m)
    ]
    return first, slots, prog


@settings(max_examples=100, deadline=None)
@given(NAMES, BIG, BIG, BIG, report_columns())
@example("", 3, 1, 1, ([0], b"\x01", None))  # m_max = 1
@example("p", 257, 5, 9, ([None], (0, 0, 0), Progression(5, 4)))  # one candidate progression
def test_report_json_is_the_indenting_encoder_byte_for_byte(
    report_json_oracle, report_records_oracle, name, ell, m_max, budget, columns
):
    report = ScanReport(name, ell, m_max, budget, *columns)
    records = report_records_oracle(*columns)
    assert report.to_json() == json.dumps(report_json_oracle(report, records), indent=2)


@settings(max_examples=100, deadline=None)
@given(NAMES, BIG, BIG, BIG, report_columns())
def test_report_csv_is_the_csv_writer_byte_for_byte(
    report_csv_oracle, report_records_oracle, name, ell, m_max, budget, columns
):
    report = ScanReport(name, ell, m_max, budget, *columns)
    assert report.to_csv() == report_csv_oracle(report_records_oracle(*columns))


@settings(max_examples=100, deadline=None)
@given(NAMES, BIG, BIG, BIG, report_columns())
def test_a_report_compares_hashes_and_copies_as_its_records(
    report_records_oracle, name, ell, m_max, budget, columns
):
    import copy
    import pickle

    header, (first, slots, prog) = (name, ell, m_max, budget), columns
    report = ScanReport(*header, *columns)
    records = tuple(report_records_oracle(*columns))
    assert report.candidates() == [v for v in records if v.status == "candidate"]
    assert "verdicts" not in vars(report)  # candidates() built no other record
    assert report.verdicts == records
    # the hash of a frozen dataclass of the header and the records
    assert hash(report) == hash((*header, records))
    assert report == ScanReport(*header, list(first), slots, prog)
    assert report != ScanReport(name + "x", ell, m_max, budget, *columns)
    assert report != records
    if None not in first:  # more slots change no witness, so no record
        assert report == ScanReport(*header, first, slots + slots, prog)
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied == report and hash(copied) == hash(report)
        assert copied.verdicts == records
        assert [type(v) for v in copied.verdicts] == [ScanVerdict] * len(records)


@settings(max_examples=40, deadline=None)
@given(NAMES, st.integers(1, 30), st.integers(0, 29), st.sampled_from([2, 3, 5]))
def test_scanned_report_json_is_the_indenting_encoder_byte_for_byte(
    report_json_oracle, name, m, t, ell
):
    series = build_series("partition", 300, modulus=ell)
    for report in (
        scan(series, ell, m, series_name=name),
        scan_progression(series, ell, Progression(m, t), name),
    ):
        assert report.to_json() == json.dumps(report_json_oracle(report), indent=2)


def test_report_csv_contract():
    series = build_series("partition", 400, modulus=5)
    report = scan(series, 5, 5, series_name="partition")
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["m", "t", "status", "n", "value", "checked"]
    assert len(rows) == 1 + len(report.verdicts)
    candidate_rows = [r for r in rows[1:] if r[2] == "candidate"]
    assert candidate_rows == [["5", "4", "candidate", "", "", str((400 - 5) // 5)]]
    for row, v in zip(rows[1:], report.verdicts):
        fields = (v.m, v.t, v.status, v.n, v.value, v.checked)
        assert row == ["" if x is None else str(x) for x in fields]


def test_reports_survive_pickle_and_deepcopy():
    import copy
    import pickle

    series = build_series("partition", 400, modulus=5)
    reports = scan(series, 5, 6, "partition"), scan_progression(series, 5, Progression(5, 4))
    for report in reports:
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert copied == report
            assert [type(v) for v in copied.verdicts] == [ScanVerdict] * len(report.verdicts)


# ----------------------------------------------------------- input checks


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: scan_prefix(build_series("partition", 8, 5), 5, 0, 8), "m_max must be positive"),
        (lambda: theorem_applies(EtaQuotientSpec(((1, -1),)), 5, 5), "ell must be 2 or 3"),
        (lambda: sturm_bound(2, 0), "N must be positive"),
    ],
    ids=["scan-prefix-m-max-0", "theorem-applies-ell-5", "sturm-bound-level-0"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()

"""Acceptance gate: one test per top-level criterion, at the stated bounds
and tolerances (exact arithmetic unless a numeric tolerance is given).

Each test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line (visible with
``pytest -s`` or in failure output) before asserting.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

from qsift.arith import ExactScalar
from qsift.generators import (
    build_series,
    catalog_entry,
    mock_f,
    mock_omega,
)
from qsift.qseries import integer_mod
from qsift.scanner import scan, theorem_applies, verify_known
from qsift.transform import (
    Progression,
    coverage_target,
    cusp_half_leading,
    cusp_one_leading,
    eta_transform_defect,
    good_progression_support_vanishes,
    identity_suites,
    is_good,
    orbit,
    random_unimodular,
)


def _report(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert not failures, f"{name}: {failures[:10]}"


def _good_ts(Q: int, kind: str) -> list[int]:
    if Q == 1:
        return [0]
    return [t for t in range(Q) if is_good(Progression(Q, t), kind)]


def test_criterion_1_known_congruences():
    """Exact reproduction of the known congruences at desk scale, each claim
    under 10 seconds."""
    full_bounds = {
        "partition-mod5": 2000,
        "cubic-mod3": 1500,
        "cphi2-mod2": 1500,
        "cphi2-mod5": 1500,
        "core4-mod2": 1500,
        "crank-mod5": 1500,
        "eta5inv-mod2": 1500,
    }
    failures = []
    timings = []
    for claim, bound in full_bounds.items():
        # run one claim at its full bound, the rest at a token bound
        bounds = {other: 1 for other in full_bounds}
        bounds.update({"mockf-parity-mod2": 1, "omega-parity-mod2": 1})
        bounds[claim] = bound
        start = time.monotonic()
        results = dict(verify_known(bounds))
        elapsed = time.monotonic() - start
        timings.append(elapsed)
        if not results[claim]:
            failures.append(claim)
        if elapsed > 10:
            failures.append(f"{claim} too slow: {elapsed:.1f}s")
    _report("known-congruences", failures, f"max {max(timings):.1f}s per claim")


def test_criterion_2_parity_theorems():
    """a(n) = p(n) mod 2 and the odd-characterization of c(n), n <= 2000."""
    failures = []
    bound = 2000
    f2 = mock_f(bound + 1, integer_mod(2))
    p2 = build_series("partition", bound + 1, modulus=2)
    for n in range(bound + 1):
        if f2.coeffs[n] != p2.coeffs[n]:
            failures.append(("mock-f-parity", n))
    w2 = mock_omega(bound + 1, integer_mod(2))
    odd_slots = set()
    for j in range(-30, 31):
        slot = 6 * j * j + 4 * j
        if 0 <= slot <= bound:
            odd_slots.add(slot)
    for n in range(bound + 1):
        if (w2.coeffs[n] == 1) != (n in odd_slots):
            failures.append(("omega-parity", n))
    _report("parity-theorems", failures)


def test_criterion_3_no_congruences_mod3():
    """Every progression with m <= 30 of both mock theta functions receives
    a nonvanishing witness mod 3 within the 20000-coefficient budget."""
    budget = 20000
    start = time.monotonic()
    failures = []
    for name, build in (("mock_f", mock_f), ("mock_omega", mock_omega)):
        series = build(budget, integer_mod(3))
        report = scan(series, 3, 30, series_name=name)
        for verdict in report.candidates():
            failures.append((name, verdict.m, verdict.t))
    elapsed = time.monotonic() - start
    if elapsed > 60:
        failures.append(f"too slow: {elapsed:.1f}s")
    _report("mod3-witness-scan", failures, f"{elapsed:.1f}s")


def test_criterion_4_identity_suites():
    """Randomized exact identity suites (>= 100 instances each) plus the
    exhaustive orbit-coverage and good-progression support checks, m <= 60."""
    failures = []

    results = identity_suites(trials=120)
    for result in results:
        if not result.passed:
            failures.append((result.name, result.first_failure))

    # orbit coverage, exhaustively for m <= 60, for the f-side action, the
    # omega-side action, and eta actions hitting all three divisor branches
    rng = random.Random(20240811)
    spot_checks = []
    for kind, B in (("f", None), ("omega", None), ("eta", -5), ("eta", -2), ("eta", -3)):
        for m in range(1, 61):
            if kind == "omega":
                units = [a for a in range(1, 3 * m + 1) if gcd(a, 3 * m) == 1]
                corr = {a: 2 * (a * a - 1) // 3 for a in units}
            else:
                units = [a for a in range(1, 24 * m + 1) if gcd(a, 6 * m) == 1]
                if kind == "f":
                    corr = {a: (1 - a * a) // 24 for a in units}
                else:
                    corr = {a: -B * (1 - a * a) // 24 for a in units}
            action = {(a * a % m, corr[a] % m) for a in units}
            for t in range(m):
                p = Progression(m, t)
                reached = {(sq * t + add) % m for sq, add in action}
                if not coverage_target(p, kind, B) <= reached:
                    failures.append(("orbit-coverage", kind, B, m, t))
                elif m <= 12 and rng.random() < 0.05:
                    spot_checks.append((p, kind, B, reached))
    # the fast enumeration above must agree with the orbit operation itself
    for p, kind, B, reached in spot_checks:
        if orbit(p, kind, B) != reached:
            failures.append(("orbit-op-mismatch", kind, B, p.m, p.t))

    for kind in ("f", "omega"):
        for m in range(1, 61):
            for t in range(m):
                p = Progression(m, t)
                if is_good(p, kind) and not good_progression_support_vanishes(p, kind):
                    failures.append(("good-support", kind, m, t))

    _report("identity-suites", failures)


def test_criterion_5_cusp_leading_identities():
    """Exact 24Q-th power identities of both cusp leading terms for
    Q in {1, 5, 7, 11, 13} and every good t."""
    failures = []
    for Q in (1, 5, 7, 11, 13):
        expected_half = ExactScalar(Fraction(1, Q) ** (12 * Q))
        for t in _good_ts(Q, "f"):
            if cusp_half_leading(Q, t) ** (24 * Q) != expected_half:
                failures.append(("half", Q, t))
        sign = Fraction(1, 2) if Q % 2 else Fraction(0)
        expected_one = ExactScalar(Fraction(1, 2 * Q) ** (12 * Q), 1, sign)
        for t in _good_ts(Q, "omega"):
            if cusp_one_leading(Q, t) ** (24 * Q) != expected_one:
                failures.append(("one", Q, t))
    _report("cusp-leading-terms", failures)


def test_criterion_6_eta_transformation_numeric():
    """|eta(Az) - nu(A) sqrt(-i(cz+d)) eta(z)| < 1e-9 for 50 random
    matrices with 1 <= c <= 20 and Im z >= 0.3, 200-term truncations."""
    rng = random.Random(60)
    failures = []
    for _ in range(50):
        A = random_unimodular(rng, 1, 20)
        x = -A.d / A.c + rng.uniform(-0.3, 0.3)
        z = complex(x, rng.uniform(0.3, 0.5))
        defect = eta_transform_defect(A, z, terms=200)
        if not defect < 1e-9:
            failures.append((str(A), z, defect))
    _report("eta-transformation-numeric", failures)


def test_criterion_7_oracle_equivalences(
    partition_oracle, rank_diff_oracle, omega_partition_oracle
):
    """Series coefficients match the independent combinatorial oracles."""
    failures = []
    f = mock_f(31)
    if f.coeffs[0] != 1:
        failures.append(("mock-f", 0))
    for n in range(1, 31):
        if f.coeffs[n] != rank_diff_oracle(n):
            failures.append(("mock-f", n))
    w = mock_omega(31)
    for n in range(31):
        if w.coeffs[n] != omega_partition_oracle(n):
            failures.append(("mock-omega", n))
    part = build_series("partition", 61)
    counts = partition_oracle(60)
    for n in range(61):
        if part.coeffs[n] != counts[n]:
            failures.append(("partition", n))
    _report("oracle-equivalences", failures)


def test_criterion_8_applicability_examples():
    """The applicability report on the six worked examples."""
    failures = []
    cases = (
        # multipartitions: blocked exactly when ell | k
        ("multipartition_2", 3, 5, True, None),
        ("multipartition_2", 2, 5, False, "ell-divides-B"),
        ("multipartition_3", 2, 5, True, None),
        ("multipartition_3", 3, 5, False, "ell-divides-B"),
        # cubic: blocked mod 3, allowed mod 2 (even after level rewrite)
        ("cubic", 3, 5, False, "ell-divides-B"),
        ("cubic", 2, 5, True, None),
        ("cubic", 2, 10, True, None),
        # crank difference: allowed for both moduli
        ("crank_diff", 2, 5, True, None),
        ("crank_diff", 3, 5, True, None),
        ("crank_diff", 2, 10, True, None),
        # cphi2 mod 3: odd m allowed, even m blocked by the level condition
        ("cphi2", 3, 5, True, None),
        ("cphi2", 3, 7, True, None),
        ("cphi2", 3, 6, False, "q-divisor-shares-level"),
        # 4-cores: no pole at infinity
        ("core4", 2, 5, False, "no-pole"),
        ("core4", 3, 5, False, "no-pole"),
        # inverse eta at level 5: blocked when 5 | m
        ("eta5inv", 2, 5, False, "q-divisor-shares-level"),
        ("eta5inv", 2, 10, False, "q-divisor-shares-level"),
        ("eta5inv", 2, 7, True, None),
    )
    for name, ell, m, applies, reason in cases:
        result = theorem_applies(catalog_entry(name).spec, ell, m)
        if result.applies != applies:
            failures.append((name, ell, m, result))
        elif reason is not None and reason not in result.reasons:
            failures.append((name, ell, m, result))
    _report("applicability-examples", failures)

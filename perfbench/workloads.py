"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD SEED CACHE_DIR OUT_JSON TRACE

Imports qsift from the checkout's ``src`` (nothing needs installing), runs the
workload's jobs one at a time, checks every output, and writes the job
timings and check results to OUT_JSON.  With TRACE=1 the layer wrappers of
``tracing.py`` are installed first and the spans are written beside OUT_JSON.

The CLI is driven in-process through ``qsift.cli.main(argv)`` with stdout
captured.  Every qsift function is looked up on its module at call time, so
the traced pass goes through the wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from speed import Sampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

MOCK3_BUDGETS = (20000, 100000)
WARM_REPEATS = 8
ETA_SCANS = (
    ("cphi2", 5),
    ("partition", 5),
    ("cubic", 3),
    ("core4", 2),
    ("crank_diff", 5),
    ("multipartition_3", 3),
)
ETA_BUDGET = 20000
M_MAX = 30
# Primes l for the Z/l identity jobs.  From 29 up, the Kronecker slot width of
# the N=16384 products is the same for every choice, and (q;q)^(l-6), which
# 1/(q;q)^6 equals mod l, is dense; smaller l would make the job's cost
# depend on the seed.
IDENTITY_ELLS = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
IDENTITY_JOBS = ((4096, False), (4096, True), (16384, True))
SUITE_SEEDS = 8
SUITE_TRIALS = 120
CUSP_CHECKS = (("f", 5), ("f", 7), ("f", 11), ("f", 13), ("omega", 5), ("omega", 7), ("omega", 11))
SWEEP_EXPONENTS = (-4, -3, -2, -1, 1, 2, 3, 4)
SWEEP_CALLS = 67584


def scan_key(series: str, ell: int, budget: int) -> str:
    return f"scan {series} mod {ell} m-max {M_MAX} budget {budget}"


def scan_argv(series: str, ell: int, budget: int, cache_dir: str | None) -> list[str]:
    argv = ["--cache-dir", cache_dir] if cache_dir else []
    return argv + [
        "scan", series, "--mod", str(ell), "--m-max", str(M_MAX), "--budget", str(budget),
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``qsift.cli.main(argv)`` with stdout and stderr captured."""
    import qsift.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = qsift.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue()


def report_digest(text: str) -> str:
    """Digest of a scan report's content: the series, modulus, bounds and
    verdicts.  Keys a report may gain later do not enter it."""
    report = json.loads(text)
    content = {k: report[k] for k in ("series", "modulus", "m_max", "budget", "verdicts")}
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def theorem_sweep() -> tuple[int, str]:
    """``theorem_applies`` for every level N <= 12, every two-factor
    eta-quotient whose deltas divide N with exponents in [-4, 4] \\ {0},
    l in {2, 3} and m <= 12; returns the call count and a digest of the
    answers in that order."""
    import qsift.generators
    import qsift.scanner

    spec_type = qsift.generators.EtaQuotientSpec
    digest = hashlib.sha256()
    calls = 0
    for level in range(1, 13):
        divisors = [d for d in range(1, level + 1) if level % d == 0]
        for i, d1 in enumerate(divisors):
            for d2 in divisors[i + 1 :]:
                for r1 in SWEEP_EXPONENTS:
                    for r2 in SWEEP_EXPONENTS:
                        spec = spec_type(((d1, r1), (d2, r2)))
                        for ell in (2, 3):
                            for m in range(1, 13):
                                a = qsift.scanner.theorem_applies(spec, ell, m)
                                digest.update(f"{spec} {ell} {m} {a.reasons};".encode())
                                calls += 1
    return calls, digest.hexdigest()


def ramanujan_sides(n: int, ell: int | None):
    """Both sides of sum p(5k+4) q^k = 5 (q^5;q^5)^5 / (q;q)^6 to n slots,
    from public QSeries operations only.  Over Z/l the left side is built over
    Z/5l, so that it can be divided by 5 afterwards."""
    import qsift.generators
    import qsift.qseries as qs

    eta = qsift.generators.eta_series
    left_ring = qs.INTEGER if ell is None else qs.integer_mod(5 * ell)
    right_ring = qs.INTEGER if ell is None else qs.integer_mod(ell)
    left = eta(5 * n, left_ring).invert().extract_progression(5, 4)
    eta5 = eta(-(-n // 5), right_ring).substitute_power(5)
    right = (eta5**5) * (eta(n, right_ring) ** -6)
    return left, right


def check_ramanujan(sides, n: int, ell: int | None) -> str | None:
    left, right = sides
    if left.offset != right.offset:
        return f"offsets differ: {left.offset} vs {right.offset}"
    if min(left.prec, right.prec) < n:
        return f"precision {left.prec}/{right.prec} below {n}"
    for k in range(n):
        a, b = left.coeffs[k], right.coeffs[k]
        ok = a == 5 * b if ell is None else a % 5 == 0 and a // 5 == b
        if not ok:
            return f"slot {k}: left {a}, right {b}"
    return None


class Pass:
    """The jobs of one pass: each is timed, checked and recorded."""

    def __init__(self, cache_dir: str, digests: dict, tracer, sampler) -> None:
        self.cache_dir = cache_dir
        self.digests = digests
        self.tracer = tracer
        self.sampler = sampler
        self.jobs: list[dict] = []
        self.output_bytes = 0

    def job(self, name: str, kind: str, fn, check, units=0):
        """Run ``fn()``, timed; ``check(value)`` returns None or a problem.
        ``units`` is the work the job completes (coefficients or trials), or
        a function that reads it off the value.  The job's seconds exclude
        the speed sampler's handler; its speed samples are kept with it."""
        if self.tracer is not None:
            self.tracer.job = len(self.jobs)
        first = len(self.sampler.samples)
        start = self.sampler.clock()
        try:
            value = fn()
            problem = None
        except Exception as exc:  # a job that raises is a failed operation
            value, problem = None, f"raised {exc!r}"
        seconds = self.sampler.clock() - start
        samples = self.sampler.samples[first:]
        if problem is None:
            try:
                problem = check(value)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            units = 0
        elif callable(units):
            units = units(value)
        self.jobs.append(
            {
                "name": name,
                "kind": kind,
                "seconds": seconds,
                "speed_samples": samples,
                "units": units,
                "problem": problem,
            }
        )
        return value

    def cli(self, argv: list[str]) -> tuple[int, str]:
        rc, text = run_cli(argv)
        self.output_bytes += len(text.encode())
        return rc, text

    def check_scan(self, key: str, result, no_candidates: bool = False) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        if report_digest(text) != self.digests.get(key):
            return "report differs from the recorded digest"
        if no_candidates and '"candidate"' in text:
            return "candidate verdict"
        return None


def mock3_scan(p: Pass, rng: random.Random) -> None:
    jobs = [(s, b) for s in ("mock_f", "mock_omega") for b in MOCK3_BUDGETS]
    rng.shuffle(jobs)
    for series, budget in jobs:
        key = scan_key(series, 3, budget)
        argv = scan_argv(series, 3, budget, p.cache_dir)
        cold = p.job(
            key,
            "cold",
            lambda: p.cli(argv),
            lambda r: p.check_scan(key, r, no_candidates=budget == MOCK3_BUDGETS[0]),
            units=budget,
        )
        p.job(
            key,
            "warm",
            lambda: [p.cli(argv) for _ in range(WARM_REPEATS)],
            lambda rs: None if all(r == cold for r in rs) else "warm output differs from cold",
        )


def eta_congruence(p: Pass, rng: random.Random) -> None:
    import qsift.scanner

    jobs = [None, *ETA_SCANS]
    rng.shuffle(jobs)
    for job in jobs:
        if job is None:
            p.job(
                "verify_known",
                "verify",
                lambda: qsift.scanner.verify_known(),
                lambda claims: None
                if claims and all(ok for _, ok in claims)
                else f"claims failed: {[c for c, ok in claims if not ok]}",
            )
            continue
        series, ell = job
        key = scan_key(series, ell, ETA_BUDGET)
        argv = scan_argv(series, ell, ETA_BUDGET, None)
        p.job(key, "scan", lambda: p.cli(argv), lambda r: p.check_scan(key, r), units=ETA_BUDGET)


def series_identity(p: Pass, rng: random.Random) -> None:
    ell = rng.choice(IDENTITY_ELLS)
    jobs = list(IDENTITY_JOBS)
    rng.shuffle(jobs)
    for n, modular in jobs:
        job_ell = ell if modular else None
        ring = f"Z/{ell}" if modular else "Z"
        p.job(
            f"ramanujan N={n} over {ring}",
            "identity",
            lambda: ramanujan_sides(n, job_ell),
            lambda sides: check_ramanujan(sides, n, job_ell),
            units=n,
        )


def algebra(p: Pass, rng: random.Random) -> None:
    import qsift.transform

    def suite(seed: int):
        return lambda: qsift.transform.identity_suites(seed=seed, trials=SUITE_TRIALS)

    def suites_pass(results) -> str | None:
        failed = [r.name for r in results if not r.passed]
        return f"suites failed: {failed}" if failed else None

    def cusp_ok(result) -> str | None:
        rc, text = result
        return None if rc == 0 and "MISMATCH" not in text else f"exit code {rc}"

    def trials(results) -> int:
        return sum(r.trials for r in results)

    jobs = []
    for seed in (rng.randrange(1 << 30) for _ in range(SUITE_SEEDS)):
        jobs.append((f"identity_suites seed={seed}", "suite", suite(seed), suites_pass, trials))
    jobs.append(
        (
            "negative control",
            "control",
            lambda: qsift.transform.identity_suites(trials=SUITE_TRIALS, negative_control=True),
            lambda results: None if any(not r.passed for r in results) else "control passed",
            0,
        )
    )
    for kind, q in CUSP_CHECKS:
        argv = ["cusp-check", kind, "--Q", str(q)]
        jobs.append((f"cusp-check {kind} Q={q}", "cusp", lambda a=argv: p.cli(a), cusp_ok, 0))
    expected = (SWEEP_CALLS, p.digests.get("theorem_applies sweep"))
    jobs.append(
        (
            "theorem_applies sweep",
            "sweep",
            theorem_sweep,
            lambda r: None if r == expected else f"sweep gave {r[0]} calls, digest {r[1][:12]}",
            0,
        )
    )
    rng.shuffle(jobs)
    for name, kind, fn, check, units in jobs:
        p.job(name, kind, fn, check, units)


WORKLOADS = {
    "mock3-scan": mock3_scan,
    "eta-congruence": eta_congruence,
    "series-identity": series_identity,
    "algebra": algebra,
}


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main(argv: list[str]) -> int:
    workload, seed, cache_dir, out_path, trace = argv
    sys.path.insert(0, str(ROOT / "src"))
    import qsift  # noqa: F401
    import qsift.cli  # noqa: F401

    sampler = Sampler()
    tracer = None
    bindings = 0
    if trace == "1":
        tracer = Tracer(sampler.clock)
        bindings = tracer.install()
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    p = Pass(cache_dir, digests, tracer, sampler)
    rng = random.Random(f"{seed}:{workload}")
    with sampler:
        WORKLOADS[workload](p, rng)
    result = {
        "speed_samples": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": p.jobs,
        "output_bytes": p.output_bytes,
        "cache_bytes": dir_bytes(cache_dir),
        "bindings": bindings,
        "spans": None,
    }
    if tracer is not None:
        result["spans"] = out_path + ".spans"
        tracer.dump(result["spans"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

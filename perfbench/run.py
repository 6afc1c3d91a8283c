"""The qsift benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; qsift is imported from the checkout's ``src`` and needs no
install.  Each pass of a workload runs in a fresh interpreter
(``workloads.py``) with a fresh cache directory, one pass at a time, until
about S seconds are used; ``setup_s`` is measured in separate fresh
interpreters.  Without --workload every workload runs in turn.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, medians over the passes, at the reference speed of ``speed.py``.
With --trace 1 untraced and traced passes alternate and the object carries
the per-layer metrics of the traced passes and the tracing overhead.  The
lines before it are a readable report, with measured seconds beside the
scaled ones.  The exit code is 0 when at least one pass completed, whatever
the correctness checks found; they set ``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracing import layer_metrics, load_spans  # noqa: E402
from workloads import MOCK3_BUDGETS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 24
SETUP_REPEATS = 11
SETUP_SAMPLES = 10
# The child prints the monotonic clock, which all processes share, once the
# parser is built; timing from the parent's own wait would add its polling.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import qsift, qsift.cli; qsift.cli.build_parser(); print(time.perf_counter())"
)
# A run must end within 180 s: no pass may run past this many seconds.
HARD_LIMIT_S = 150.0

# What throughput_per_s counts on each workload.
THROUGHPUT_NAME = {
    "mock3-scan": "coeffs_per_s",
    "eta-congruence": "coeffs_per_s",
    "series-identity": "coeffs_per_s",
    "algebra": "trials_per_s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QSIFT_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to an imported qsift with a
    built CLI parser, and speed samples taken between the starts.  One
    untimed start first writes the bytecode cache."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")]
    subprocess.run(argv, env=env, check=True, timeout=60, capture_output=True)
    times: list[float] = []
    samples: list[float] = []
    for _ in range(SETUP_REPEATS):
        samples += [speed.sample() for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        proc = subprocess.run(
            argv, env=env, check=True, timeout=60, capture_output=True, text=True
        )
        times.append(float(proc.stdout) - start)
    samples += [speed.sample() for _ in range(SETUP_SAMPLES)]
    return times, samples


def run_pass(workload: str, seed: int, trace: bool, scratch: Path, env: dict, timeout: float):
    """One pass in a fresh interpreter with a fresh cache directory, which is
    removed afterwards.  Returns the pass result, or None if it failed."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        cache_dir = pass_dir / "cache"
        cache_dir.mkdir()
        out = pass_dir / "result.json"
        argv = [
            sys.executable, str(HERE / "workloads.py"),
            workload, str(seed), str(cache_dir), str(out), "1" if trace else "0",
        ]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(out.read_text(encoding="utf-8"))
        if result["spans"]:
            metrics = layer_metrics(load_spans(result["spans"]))
            metrics["cli.cache.bytes"] = result["cache_bytes"]
            metrics["cli.output_bytes"] = result["output_bytes"]
            result["layers"] = metrics
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def job_seconds(result: dict, keep) -> tuple[float, float]:
    """Scaled and measured seconds of the pass's jobs that ``keep`` selects.
    A job too short to hold a speed sample is scaled like its pass."""
    pass_scale = speed.scale(result["speed_samples"])
    scaled = measured = 0.0
    for job in result["jobs"]:
        if keep(job):
            samples = job["speed_samples"]
            scaled += job["seconds"] * (speed.scale(samples) if samples else pass_scale)
            measured += job["seconds"]
    return scaled, measured


def report_rows(workload: str, setup, passes: list[dict]) -> list[tuple]:
    """Every end-to-end figure: (name, value at reference speed, measured
    value, unit, samples).  The workload-specific ones appear where the
    workload has them."""
    n = len(passes)

    def med(fn) -> tuple[float, float]:
        pairs = [fn(r) for r in passes]
        return statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs)

    def throughput(r: dict) -> tuple[float, float]:
        units = sum(j["units"] for j in r["jobs"])
        scaled, measured = job_seconds(r, lambda j: j["units"])
        return (units / scaled, units / measured) if units else (0.0, 0.0)

    times, samples = setup
    setup_s = statistics.median(times)
    rows = [
        ("setup_s", setup_s * speed.scale(samples), setup_s, "s", len(times)),
        ("wall_s", *med(lambda r: job_seconds(r, lambda j: True)), "s", n),
        (THROUGHPUT_NAME[workload], *med(throughput), "1/s", n),
        ("peak_rss_mb", *med(lambda r: (r["peak_rss_mb"],) * 2), "MB", n),
    ]
    if workload == "mock3-scan":
        large = MOCK3_BUDGETS[-1]
        cold = med(lambda r: job_seconds(r, lambda j: j["kind"] == "cold" and j["units"] == large))
        rows.append(("large_scan_s", *cold, "s", n))
        rows.append(("warm_scan_s", *med(lambda r: job_seconds(r, lambda j: j["kind"] == "warm")), "s", n))
    if workload == "eta-congruence":
        rows.append(("verify_known_s", *med(lambda r: job_seconds(r, lambda j: j["kind"] == "verify")), "s", n))
    return rows


def predictions(workload: str, layers: dict, wall: float) -> list[tuple[str, bool]]:
    """The per-layer predictions the benchmark was defined with; ``wall`` is
    the traced passes' wall_s."""

    def largest_layer() -> str:
        return max((m for m in layers if m.endswith("self_s")), key=layers.get)

    out = []
    if workload in ("mock3-scan", "eta-congruence"):
        out.append(("qseries.mul.calls == 0", layers["qseries.mul.calls"] == 0))
    if workload == "mock3-scan":
        out.append(
            ("generators.mock.self_s is the largest layer self time",
             largest_layer() == "generators.mock.self_s")
        )
    if workload == "series-identity":
        out.append(("qseries.mul.self_s > wall_s / 2", layers["qseries.mul.self_s"] > wall / 2))
    if workload == "algebra":
        out.append(
            ("arith.dedekind_sum.self_s is the largest layer self time",
             largest_layer() == "arith.dedekind_sum.self_s")
        )
    return out


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its report; ``spec`` is BENCHMARK.json,
    which names the metrics the JSON line carries."""
    begin = time.perf_counter()
    env = child_env()
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    try:
        setup = measure_setup(env)
        longest = 0.0
        while True:
            round_start = time.perf_counter()
            for traced_pass in (False, True) if trace else (False,):
                timeout = HARD_LIMIT_S - (time.perf_counter() - begin)
                result = run_pass(workload, seed, traced_pass, scratch, env, timeout)
                if result is None:
                    attempted += 1
                    failed += 1
                    continue
                (traced if traced_pass else plain).append(result)
                attempted += len(result["jobs"])
                for job in result["jobs"]:
                    if job["problem"]:
                        failed += 1
                        print(f"FAILED {job['name']} ({job['kind']}): {job['problem']}", file=sys.stderr)
            longest = max(longest, time.perf_counter() - round_start)
            elapsed = time.perf_counter() - begin
            if failed or elapsed + longest > min(seconds, HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it

    if not plain or (trace and not traced):
        print(f"error: no {workload} pass completed", file=sys.stderr)
        return 1

    print(
        f"qsift benchmark: workload={workload} seed={seed} trace={int(trace)} "
        f"python={platform.python_version()} cores={os.cpu_count()}"
    )
    print(
        f"  {len(plain)} untraced and {len(traced)} traced passes; medians, "
        f"scaled to the reference speed (measured in brackets)"
    )
    rows = report_rows(workload, setup, plain)
    for name, value, measured, unit, n in rows:
        print(f"  {name:32} {value:14.6f} {unit:5} ({measured:.6f} measured; {n} samples)")
    print(f"  {'error_rate':32} {failed / attempted:14.6f}       ({failed} of {attempted} operations failed)")

    if trace:
        # Times are scaled by their own pass's speed samples.
        def scaled_layers(r: dict) -> dict:
            k = speed.scale(r["speed_samples"])
            return {m: v * k if m.endswith("_s") else v for m, v in r["layers"].items()}

        def scaled_wall(r: dict) -> float:
            return job_seconds(r, lambda j: True)[0]

        per_pass = [scaled_layers(r) for r in traced]
        layers = {
            m["name"]: statistics.median(p.get(m["name"], 0) for p in per_pass)
            for m in spec["per_layer"]
        }
        traced_wall = statistics.median(scaled_wall(r) for r in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.median(scaled_wall(r) for r in plain)
        print(f"  per-layer metrics of the traced passes ({traced[0]['bindings']} bindings wrapped):")
        for m in spec["per_layer"]:
            print(f"  {m['name']:32} {layers[m['name']]:14.6f} {m['unit']}")
        for text, holds in predictions(workload, layers, traced_wall):
            print(f"  prediction {text}: {'holds' if holds else 'DOES NOT HOLD'}")
        chosen, values = spec["per_layer"], layers
    else:
        values = {name: value for name, value, *_ in rows}
        values["throughput_per_s"] = values[THROUGHPUT_NAME[workload]]
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="the qsift benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsift" / "__init__.py").is_file():
        print(f"error: no qsift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        status |= run_workload(spec, workload, args.seed, args.seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())

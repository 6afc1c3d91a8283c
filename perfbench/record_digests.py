"""Record the digests that the benchmark's correctness gate compares against.

    python3 perfbench/record_digests.py

Runs every fixed-input job once (the mod-3 mock theta scans, the
eta-quotient scans and the theorem_applies sweep) and writes their digests to
perfbench/digests.json.  The checked-in file was recorded at the commit that
added the benchmark, whose src/ is the seed code.
"""

from __future__ import annotations

import json
import sys

import workloads as w


def main() -> int:
    sys.path.insert(0, str(w.ROOT / "src"))
    jobs = [("mock_f", 3, b) for b in w.MOCK3_BUDGETS]
    jobs += [("mock_omega", 3, b) for b in w.MOCK3_BUDGETS]
    jobs += [(series, ell, w.ETA_BUDGET) for series, ell in w.ETA_SCANS]
    digests = {}
    for series, ell, budget in jobs:
        rc, text = w.run_cli(w.scan_argv(series, ell, budget, None))
        if rc != 0:
            print(f"{series} mod {ell}: exit code {rc}", file=sys.stderr)
            return 1
        digests[w.scan_key(series, ell, budget)] = w.report_digest(text)
    calls, digest = w.theorem_sweep()
    if calls != w.SWEEP_CALLS:
        print(f"sweep made {calls} calls, expected {w.SWEEP_CALLS}", file=sys.stderr)
        return 1
    digests["theorem_applies sweep"] = digest
    w.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

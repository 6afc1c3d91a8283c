"""Spans for the traced pass.

A :class:`Tracer` wraps public functions of each qsift layer.  Every call of a
wrapped function records one span ``[name, job, parent, start, end, counts]``
in memory; ``parent`` is the index of the enclosing span (-1 at top level) and
``counts`` holds the work counts read off the call's arguments and result.
The spans are written out when the pass ends and turned into per-layer
metrics by :func:`layer_metrics`.

Nothing under ``src/`` is changed: a function is replaced in every ``qsift``
namespace that bound it (the package, the defining module and each module
that imported it), and a method is replaced on its class.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _nonzeros(coeffs) -> int:
    return len(coeffs) - coeffs.count(0)


def _mul_counts(args, result):
    a, b = args
    n_out = result.prec
    return {"slots": n_out, "work": n_out * min(_nonzeros(a.coeffs), _nonzeros(b.coeffs))}


def _scan_counts(args, report):
    slots = candidates = 0
    for v in report.verdicts:
        if v.status == "witness":
            slots += v.n + 1
        else:
            slots += v.checked + 1
            candidates += 1
    return {
        "slots_read": slots,
        "candidates": candidates,
        "witnesses": len(report.verdicts) - candidates,
        "progressions": len(report.verdicts),
    }


def _witness_counts(args, n):
    n_max = args[3]
    return {"slots_read": n_max + 1 if n is None else n + 1}


def _targets(qsift):
    """(span name, owner, attribute, counter) for every wrapped callable."""
    qs, gen, scn = qsift.qseries, qsift.generators, qsift.scanner
    tr, ar, cli = qsift.transform, qsift.arith, qsift.cli
    return [
        ("qseries.mul", qs.QSeries, "__mul__", _mul_counts),
        ("qseries.invert", qs.QSeries, "invert", lambda a, r: {"slots": r.prec}),
        ("qseries.pow", qs.QSeries, "__pow__", None),
        ("generators.mock", gen, "mock_f", lambda a, r: {"coeffs": r.prec}),
        ("generators.mock", gen, "mock_omega", lambda a, r: {"coeffs": r.prec}),
        ("generators.eta_quotient", gen, "eta_quotient", lambda a, r: {"coeffs": r.prec}),
        ("generators.eta_series", gen, "eta_series", None),
        ("generators.build_series", gen, "build_series", None),
        ("scanner.scan", scn, "scan", _scan_counts),
        ("scanner.witness", scn, "witness", _witness_counts),
        ("scanner.theorem_applies", scn, "theorem_applies", None),
        ("scanner.verify_known", scn, "verify_known", None),
        (
            "transform.identity_suites",
            tr,
            "identity_suites",
            lambda a, r: {"trials": sum(s.trials for s in r)},
        ),
        ("transform.constancy_check", tr, "constancy_check", None),
        ("transform.orbit", tr, "orbit", None),
        ("transform.orbit", tr, "coverage_target", None),
        ("transform.multiplier", tr, "eta_multiplier", None),
        ("transform.multiplier", tr, "mock_multiplier", None),
        ("transform.multiplier", tr, "omega_multiplier_even_c", None),
        ("transform.multiplier", tr, "omega_multiplier_even_d", None),
        ("transform.cusp_leading", tr, "cusp_half_leading", None),
        ("transform.cusp_leading", tr, "cusp_one_leading", None),
        ("transform.eta_numeric", tr, "eta_numeric", None),
        ("arith.dedekind_sum", ar, "dedekind_sum", lambda a, r: {"c_sum": a[1]}),
        ("arith.exact_scalar", ar.ExactScalar, "__post_init__", None),
        ("arith.exact_scalar", ar.ExactScalar, "__mul__", None),
        ("arith.exact_scalar", ar.ExactScalar, "__pow__", None),
        (
            "cli.main",
            cli,
            "main",
            lambda a, r: {"cached": int("--cache-dir" in (a[0] if a else ()))},
        ),
    ]


class Tracer:
    """Records spans around wrapped calls; ``clock`` is the time source."""

    def __init__(self, clock) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.clock = clock
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.job, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every target in every namespace that binds it; returns the
        number of bindings replaced."""
        qsift = sys.modules["qsift"]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qsift"]
        replaced = 0
        for name, owner, attr, counter in _targets(qsift):
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                replaced += 1
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced += 1
        return replaced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """``<span>.self_s``, ``<span>.calls`` and ``<span>.<count>`` for every
    span name, and the derived per-layer metrics.  Self time is a span's
    duration minus the durations of its direct children (spans nest, since
    a pass has one thread)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] >= 0:
            child_time[span[2]] += span[4] - span[3]

    # A cache hit is a cli.main call with a cache directory during which
    # build_series was never entered.
    built = set()
    for span in spans:
        if span[0] == "generators.build_series":
            parent = span[2]
            while parent >= 0 and spans[parent][0] != "cli.main":
                parent = spans[parent][2]
            built.add(parent)

    out: dict[str, float] = {
        "cli.main.hit_self_s": 0.0,
        "cli.main.miss_self_s": 0.0,
        "cli.cache.hits": 0,
        "cli.cache.misses": 0,
        "trace.spans": len(spans),
    }

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + value

    for i, (name, _job, _parent, start, end, counts) in enumerate(spans):
        own = end - start - child_time[i]
        add(f"{name}.self_s", own)
        add(f"{name}.calls", 1)
        for key, value in (counts or {}).items():
            add(f"{name}.{key}", value)
        if name == "cli.main" and counts["cached"]:
            if i in built:
                add("cli.main.miss_self_s", own)
                add("cli.cache.misses", 1)
            else:
                add("cli.main.hit_self_s", own)
                add("cli.cache.hits", 1)
    progressions = out.get("scanner.scan.progressions", 0)
    if progressions:
        out["scanner.scan.witness_ratio"] = out["scanner.scan.witnesses"] / progressions
    out["transform.trials"] = out.get("transform.identity_suites.trials", 0)
    return out

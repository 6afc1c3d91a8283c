"""Command-line interface: expand series, scan for congruences, run the
identity suites, verify cusp leading-term identities (``cusp-check`` prints
``transform.cusp_identity`` per residue), and report criterion applicability
(``info`` prints ``scanner.criterion_report``), computing none of it.

A command returns 0 on success, 5 when an identity suite fails and 6 when
a cusp identity fails.  Every other failure it raises, and ``main`` alone
maps the exception to an exit code and one ``error: ...`` line on stderr:
UnknownSeries exits 3, InsufficientPrecision (a budget that cannot cover
the request) 4, and ValueError (GrammarError among them) 2.  An option
value out of its domain raises argparse.ArgumentError, which ``main``
reports through the parser: the usage line and exit 2.  When the reader
of stdout goes away (``qsift expand ... | head -1``), ``main`` prints
nothing more and exits 141, as a shell reports a producer stopped by
SIGPIPE.  Stdout carries only the declared output format; diagnostics go
to stderr.

``scan`` first builds a probe of 16 slots per unit of m_max (of m for
``--progression``), at most the budget, and searches it.  A witness is the
least n with a nonzero slot, and a shorter build is an exact prefix of a
longer one, so when every progression has a witness in the probe, the
report read from it is the full budget's, byte for byte.  Otherwise the
budget is built and the report, candidates and their ``checked`` among it,
is read from that.  Either way the header's ``budget`` is the one asked
for.  The cache stores only the build the report was read from, under that
build's own limit: a scan whose probe leaves nothing open caches the
probe, and the same scan again reads that entry and builds nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from .generators import (
    THETA_SERIES,
    EtaQuotientSpec,
    UnknownSeries,
    build_series,
    catalog_entry,
    resolve_series,
)
from .qseries import (
    INTEGER,
    CoefficientRing,
    QSeries,
    integer_mod,
)
from .scanner import (
    DEFAULT_BUDGET,
    InsufficientPrecision,
    criterion_report,
    scan_prefix,
)
from .transform import (
    CUSP_Q_PRIME_TO,
    DEFAULT_SEED,
    Progression,
    cusp_identity,
    cusp_q_ok,
    good_residues,
    identity_suites,
)

CACHE_ENV = "QSIFT_CACHE_DIR"

# A scan first builds a probe of this many slots per unit of m_max (of m,
# for one progression), and builds its budget only when the probe leaves a
# progression open.  The witnesses of f and omega mod 3 for every m <= m_max
# lie below slot 5*m_max at m_max = 30, 10*m_max at 1000 and 14.6*m_max at
# 3000.
_PROBE_PER_M = 16

# Part of every cache key: raise it whenever the entry layout or the way a
# series is built changes, so entries written before are misses.
_CACHE_VERSION = 3

_GRAMMAR = re.compile(r"^\d+\^-?\d+(,\d+\^-?\d+)*$")


class GrammarError(ValueError):
    pass


def parse_series_spec(text: str) -> EtaQuotientSpec | str:
    """A series specifier is a catalog name or an inline eta-quotient in the
    grammar ``delta^exponent[,delta^exponent...]``, e.g. ``1^-4,2^5,4^-2``."""
    if _GRAMMAR.match(text):
        factors = []
        for item in text.split(","):
            delta, _, exp = item.partition("^")
            factors.append((int(delta), int(exp)))
        try:
            return EtaQuotientSpec(tuple(factors))
        except ValueError as exc:
            raise GrammarError(str(exc)) from exc
    if any(ch in text for ch in "^,"):
        raise GrammarError(f"malformed eta-quotient spec {text!r}")
    catalog_entry(text)  # raises UnknownSeries
    return text


# ----------------------------------------------------------------- caching
#
# An entry is one line of JSON, the header, followed by the payload.  The
# header holds the key, the ring, the offset, and the payload's length and
# sha256 digest.  Over Z/m with m <= 256 the payload is the raw residue
# bytes; over Z and larger moduli it is the JSON list of coefficients.


def _cache_path(cache_dir: str, key: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode()
    ).hexdigest()[:24]
    return os.path.join(cache_dir, f"qsift-{digest}.bin")


def _series_key(spec: EtaQuotientSpec | str, limit: int, modulus: int | None) -> dict:
    """The cache key of a build: the canonical spec and the ring that
    ``generators.resolve_series`` gives (ValueError where it refuses the
    modulus).  So an eta-quotient is named by its sorted factors however it
    was spelled, a theta series by its eta-quotient, and ``mock_f`` and
    ``mock_omega`` by their names."""
    spec, ring = resolve_series(spec, modulus)
    return {
        "version": _CACHE_VERSION,
        "series": str(spec),
        "ring": str(ring),
        "limit": limit,
        "modulus": modulus,
    }


def _load_cached(cache_dir: str, key: dict) -> QSeries | None:
    """The entry's series, or None unless its header carries the key and
    the key's ring, and the payload has the header's length and digest (and
    passes the checks of ``_series_from_payload``)."""
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        if type(header) is not dict or header.get("key") != key:
            return None
        if header.get("ring") != key["ring"]:  # e.g. Z/5 residues for Z/7
            return None
        if header.get("length") != len(payload):  # e.g. a torn entry
            return None
        if header.get("sha256") != hashlib.sha256(payload).hexdigest():
            return None
        if not _parse_ring(header["ring"]).stores_bytes:
            payload = json.loads(payload)
        return _series_from_payload({**header, "coefficients": payload})
    except (OSError, ValueError, KeyError, ZeroDivisionError, RecursionError):
        return None  # e.g. an offset "1/0", or JSON nested too deep to read


def _store_cached(cache_dir: str, key: dict, series: QSeries) -> None:
    """Write the entry to a temporary file in the cache directory and
    rename it into place, so a reader sees either no entry or a whole one."""
    path = _cache_path(cache_dir, key)
    tmp = f"{path}.{os.getpid()}.tmp"
    if series.ring.stores_bytes:
        payload = series.slots
    else:
        payload = json.dumps(list(series.slots)).encode()
    header = {
        "key": key,
        "ring": str(series.ring),
        "offset": str(series.offset),
        "length": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        print(f"cache write failed: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _series_payload(series: QSeries, name: str) -> dict:
    """The JSON of ``expand``.  A theta series is printed as g_i, its
    eta-quotient times the scale in ``THETA_SERIES``: over Q, each
    coefficient a fraction string."""
    ring, coefficients = str(series.ring), list(series.slots)
    if name in THETA_SERIES:
        scale = THETA_SERIES[name][1]
        ring, coefficients = "Q", [str(scale * c) for c in coefficients]
    return {
        "series": name,
        "offset": str(series.offset),
        "ring": ring,
        "modulus": series.ring.modulus,
        "coefficients": coefficients,
    }


def _parse_ring(text: str) -> CoefficientRing:
    """The ring whose ``str`` is ``text``; ValueError for anything else."""
    if text == "Z":
        return INTEGER
    if text.startswith("Z/"):
        return integer_mod(int(text[2:]))
    raise ValueError(f"unknown ring {text!r}")


def _series_from_payload(payload: dict) -> QSeries:
    """The series of a payload written by ``_series_payload`` over Z or
    Z/m (a theta series's Q is printed, never read back).  Raises
    ValueError unless the ring and the offset are strings as that writes
    them, the ring is Z or Z/m, and every coefficient is what it writes: a
    JSON integer over Z (not a bool, a float or a string), and over Z/m an
    integer in [0, m).  Over Z/m with m <= 256 the coefficients may instead
    be the residue bytes of a cache entry, each of which must be below m."""
    ring_text, offset = payload["ring"], payload["offset"]
    if type(ring_text) is not str or type(offset) is not str:
        raise ValueError("the ring or the offset is not a string")
    ring = _parse_ring(ring_text)
    offset = Fraction(offset)
    coeffs = payload["coefficients"]
    if type(coeffs) is bytes and ring.stores_bytes:
        if coeffs.translate(None, bytes(range(ring.modulus))):  # a byte >= m
            raise ValueError(f"a residue is not below {ring.modulus}")
        return QSeries._trusted(offset, coeffs, ring)
    if type(coeffs) is not list:
        raise ValueError("coefficients are not a list")
    if ring.kind == "mod":
        m = ring.modulus
        if not all(type(c) is int and 0 <= c < m for c in coeffs):
            raise ValueError(f"a coefficient is not an integer in [0, {m})")
    elif not all(type(c) is int for c in coeffs):
        raise ValueError("a coefficient is not an integer")
    return QSeries(offset, tuple(coeffs), ring)


def _read_series(
    spec: EtaQuotientSpec | str,
    limits: list[int],
    modulus: int | None,
    cache_dir: str | None,
    read,
):
    """``read(series)`` of the first build of ``limits`` coefficients, in
    order, that ``read`` accepts (returns other than None); the last is
    taken whatever it returns.  The cache entry of every limit is tried
    before anything is built, and only the build taken is stored, so a call
    leaves one entry, and the same call again reads it and builds nothing."""
    keys = [_series_key(spec, limit, modulus) for limit in limits]
    if cache_dir:
        for key in keys:
            series = _load_cached(cache_dir, key)
            if series is not None and (result := read(series)) is not None:
                return result
    for key in keys:
        series = build_series(spec, key["limit"], modulus)
        result = read(series)
        if result is not None or key is keys[-1]:
            if cache_dir:
                _store_cached(cache_dir, key, series)
            return result


# ---------------------------------------------------------------- commands


def _cmd_expand(args) -> int:
    spec = parse_series_spec(args.spec)
    if args.limit < 1:
        raise ValueError(f"--limit must be positive, got {args.limit}")
    series = _read_series(spec, [args.limit], args.mod, args.cache_dir, lambda s: s)
    payload = _series_payload(series, args.spec)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("n,exponent,coefficient")
        for n, c in enumerate(payload["coefficients"]):
            print(f"{n},{series.offset + n},{c}")
    return 0


def _cmd_scan(args) -> int:
    spec = parse_series_spec(args.spec)
    single = None
    if args.progression:
        m_text, _, t_text = args.progression.partition(":")
        try:
            m, t = int(m_text), int(t_text)
        except ValueError:
            raise ValueError(
                f"--progression wants m:t, got {args.progression!r}"
            ) from None
        single = Progression(m, t)
    if single is None and args.m_max is None:
        raise ValueError("need --m-max or --progression")
    m_max = single.m if single else args.m_max
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if args.budget < m_max:
        raise InsufficientPrecision(f"budget {args.budget} cannot cover m_max {m_max}")
    probe = min(args.budget, _PROBE_PER_M * m_max)
    report = _read_series(
        spec,
        sorted({probe, args.budget}),
        args.mod,
        args.cache_dir,
        lambda series: scan_prefix(series, args.mod, single or m_max, args.budget, args.spec),
    )
    print(report.to_json() if args.format == "json" else report.to_csv(), end="")
    if args.format == "json":
        print()
    return 0


def _cmd_identities(args) -> int:
    results = identity_suites(
        seed=args.seed, trials=args.trials, negative_control=args.negative_control
    )
    failed = False
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{result.name}: {result.trials - result.failures}/{result.trials} {status}")
        if not result.passed:
            failed = True
            print(
                f"  first failing instance: {result.first_failure}", file=sys.stderr
            )
    return 5 if failed else 0


def _cmd_cusp_check(args) -> int:
    Q, kind = args.Q, args.kind
    if Q < 1:
        raise argparse.ArgumentError(None, f"--Q must be positive (got {Q})")
    if not cusp_q_ok(kind, Q):
        raise argparse.ArgumentError(
            None,
            f"--Q must be coprime to {CUSP_Q_PRIME_TO[kind]} for kind {kind} (got {Q})",
        )
    ts = [args.t] if args.t is not None else good_residues(Q, kind)
    if not ts:  # omega with Q a power of 2: no odd prime certifies goodness
        raise ValueError(f"no good residue mod {Q} for kind {kind}; pass --t")
    bad = 0
    for t in ts:
        value, expected = cusp_identity(kind, Q, t)
        ok = value == expected
        print(f"kind={kind} Q={Q} t={t} {'ok' if ok else 'MISMATCH'}")
        if not ok:
            bad += 1
            print(f"  got {value}, expected {expected}", file=sys.stderr)
    return 6 if bad else 0


def _cmd_info(args) -> int:
    eq = parse_series_spec(args.spec)
    if isinstance(eq, str):
        if eq in THETA_SERIES:
            spec, scale = THETA_SERIES[eq]
            raise ValueError(
                f"{args.spec!r} is {scale} times the eta-quotient {spec}, and "
                f"{scale} is not a unit mod 6; no applicability report"
            )
        eq = catalog_entry(eq).spec
        if not isinstance(eq, EtaQuotientSpec):
            raise ValueError(
                f"{args.spec!r} is not an eta-quotient; no applicability report"
            )
    report = criterion_report(eq, args.ell, args.m)
    print(json.dumps({"series": args.spec, **report}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsift",
        description="exact q-series expansion and congruence scanning",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(CACHE_ENV),
        help=f"coefficient cache directory (default: ${CACHE_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print series coefficients")
    p_expand.add_argument("spec", help="catalog name or eta-quotient grammar")
    p_expand.add_argument("--limit", type=int, default=10)
    p_expand.add_argument("--mod", type=int, default=None)
    p_expand.add_argument("--format", choices=("json", "csv"), default="json")
    p_expand.set_defaults(run=_cmd_expand)

    p_scan = sub.add_parser("scan", help="scan progressions for congruences")
    p_scan.add_argument("spec")
    p_scan.add_argument("--mod", type=int, required=True)
    p_scan.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan_range = p_scan.add_mutually_exclusive_group()
    p_scan_range.add_argument("--m-max", type=int, default=None)
    p_scan_range.add_argument(
        "--progression",
        default=None,
        metavar="m:t",
        help="report a single progression instead of all m <= m_max",
    )
    p_scan.set_defaults(run=_cmd_scan)

    p_ident = sub.add_parser("identities", help="run the exact identity suites")
    p_ident.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ident.add_argument("--trials", type=int, default=100)
    p_ident.add_argument(
        "--negative-control",
        action="store_true",
        help="run the deliberately corrupted suite (expected to fail)",
    )
    p_ident.set_defaults(run=_cmd_identities)

    p_cusp = sub.add_parser("cusp-check", help="verify cusp leading-term identities")
    p_cusp.add_argument("kind", choices=("f", "omega"))
    p_cusp.add_argument("--Q", type=int, required=True)
    p_cusp.add_argument("--t", type=int, default=None)
    p_cusp.set_defaults(run=_cmd_cusp_check)

    p_info = sub.add_parser("info", help="eta-quotient data and applicability")
    p_info.add_argument("spec")
    p_info.add_argument("--ell", type=int, required=True, choices=(2, 3))
    p_info.add_argument("--m", type=int, required=True)
    p_info.set_defaults(run=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone
        with open(os.devnull, "w") as devnull:  # so the exit flush cannot raise
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except argparse.ArgumentError as exc:  # an option value out of its domain
        parser.error(str(exc))
    except UnknownSeries as exc:
        code, message = 3, f"unknown series {exc.args[0]!r}"
    except InsufficientPrecision as exc:
        code, message = 4, exc
    except ValueError as exc:  # GrammarError among them
        code, message = 2, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

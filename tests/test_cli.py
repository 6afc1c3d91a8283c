"""End-to-end tests of the command-line surface: formats, exit codes, cache."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsift.scanner
from qsift.cli import (
    _cache_path,
    _series_key,
    main,
    parse_series_spec,
)
from qsift.generators import (
    EtaQuotientSpec,
    build_series,
    catalog,
    level_mod_ell,
)
from qsift.scanner import scan, scan_progression
from qsift.transform import Progression


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- expand


def test_expand_partition(capsys):
    code, out, _ = run(capsys, "expand", "partition", "--limit", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["offset"] == "-1/24"
    assert payload["coefficients"] == [1, 1, 2, 3, 5, 7]


def test_expand_grammar_offset(capsys):
    code, out, _ = run(capsys, "expand", "1^-4,2^5,4^-2", "--limit", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["offset"] == "-1/12"  # B = -2


def test_expand_unknown_name(capsys):
    code, _, err = run(capsys, "expand", "nosuch")
    assert code == 3
    assert "unknown series" in err


def test_expand_bad_grammar(capsys):
    for bad in ("1^0", "1^2,1^3", "0^1", "2^"):
        code, _, err = run(capsys, "expand", bad)
        assert code == 2, bad
        assert err


def test_expand_roundtrip(capsys, payload_oracle):
    code, out, _ = run(capsys, "expand", "crank_diff", "--limit", "12")
    assert code == 0
    series = payload_oracle(json.loads(out))
    assert series == build_series("crank_diff", 12)


def test_expand_mod_and_csv(capsys):
    code, out, _ = run(
        capsys, "expand", "partition", "--limit", "5", "--mod", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,exponent,coefficient"
    assert lines[1] == "0,-1/24,1"
    assert lines[5] == "4,95/24,0"  # p(4) = 5 = 0 mod 5


# sha256 of what ``expand`` printed for g_0, g_1 and g_2 when they were built
# as sparse fills over Q: the scaled eta-quotients must print the same bytes
_THETA_EXPAND_SHA256 = {
    ("theta_g0", "json", 1): "cc20deb688f60e73959625c2267d04b236d2d0b7b91e15994eb0a800bc13982a",
    ("theta_g0", "csv", 1): "a5f8d12398aff65ea472506e5f559b64d9105cafd6c3eb48378c16156e464ab9",
    ("theta_g0", "json", 50): "67f53882d4f925fe650776df8d64ff67e421be4fbbb15b1d6ba1a7555065c8bd",
    ("theta_g0", "csv", 50): "074de1a0157733438d0d15b7c282103357048b19764a018cb42f678b26aac0d7",
    ("theta_g1", "json", 1): "84d91b79e6b5560ccc2754519e1ac3250dc80695b5852db974801fa8f75234dc",
    ("theta_g1", "csv", 1): "dc5a583a39e7d53bb245c5e4bfa5fde0e6e5c2aafceab918bb9c6b0bd36fb912",
    ("theta_g1", "json", 50): "7d91c00dd63afb276a871461069bd1bbd5702020b2fa1260f15412d8819b06d0",
    ("theta_g1", "csv", 50): "f77b8f9ccee8f5a46ba72088c3213eb8ff73a72919651ef30d6a43716348d4bf",
    ("theta_g2", "json", 1): "7dee60bee5914ca72a96a4916b7c91a357b9e12467f8a270c9aecc09c203503c",
    ("theta_g2", "csv", 1): "a5f8d12398aff65ea472506e5f559b64d9105cafd6c3eb48378c16156e464ab9",
    ("theta_g2", "json", 50): "60009f927d28a7b38565f708e71e728ef7c63b1d2a60200130f5606f09b99d61",
    ("theta_g2", "csv", 50): "e418c1bcc39195e9d2a7213fc12ddbf5b9f6bd91322cdfec486b78a0374def8c",
}


@pytest.mark.parametrize(
    "name, fmt, limit", sorted(_THETA_EXPAND_SHA256), ids=str
)
def test_expand_theta_prints_the_pinned_bytes(tmp_path, capsys, name, fmt, limit):
    argv = ["--cache-dir", str(tmp_path), "expand", name, "--format", fmt]
    for _ in ("cold", "warm"):
        code, out, _ = run(capsys, *argv, "--limit", str(limit))
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == _THETA_EXPAND_SHA256[name, fmt, limit]
    assert len(list(tmp_path.iterdir())) == 1


def test_expand_theta_rejects_mod(capsys):
    code, _, err = run(capsys, "expand", "theta_g0", "--mod", "3")
    assert code == 2
    assert "rational" in err


# ------------------------------------------------------------------ scan


def test_scan_partition_json(capsys):
    code, out, _ = run(
        capsys, "scan", "partition", "--mod", "5", "--m-max", "5",
        "--budget", "600",
    )
    assert code == 0
    payload = json.loads(out)
    candidates = [v for v in payload["verdicts"] if v["status"] == "candidate"]
    assert [(v["m"], v["t"]) for v in candidates] == [[5, 4]] or [
        (v["m"], v["t"]) for v in candidates
    ] == [(5, 4)]


def test_scan_mock_f_all_witnesses(capsys):
    code, out, _ = run(
        capsys, "scan", "mock_f", "--mod", "3", "--m-max", "10",
        "--budget", "3000",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(v["status"] == "witness" for v in payload["verdicts"])


def test_scan_cubic_candidate(capsys):
    code, out, _ = run(
        capsys, "scan", "cubic", "--mod", "3", "--m-max", "3", "--budget", "500"
    )
    assert code == 0
    payload = json.loads(out)
    candidates = [(v["m"], v["t"]) for v in payload["verdicts"] if v["status"] == "candidate"]
    assert candidates == [[3, 2]] or candidates == [(3, 2)]


def test_scan_insufficient_budget(capsys):
    code, _, err = run(
        capsys, "scan", "partition", "--mod", "5", "--m-max", "50",
        "--budget", "10",
    )
    assert code == 4
    assert err


def test_scan_single_progression(capsys):
    code, out, _ = run(
        capsys, "scan", "partition", "--mod", "5", "--progression", "5:4",
        "--budget", "600",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["verdicts"]) == 1
    verdict = payload["verdicts"][0]
    assert (verdict["m"], verdict["t"], verdict["status"]) == (5, 4, "candidate")


def test_scan_bad_progression(capsys):
    code, _, err = run(
        capsys, "scan", "partition", "--mod", "5", "--progression", "five",
    )
    assert code == 2
    assert err


def test_scan_needs_range_or_progression(capsys):
    code, _, err = run(capsys, "scan", "partition", "--mod", "5")
    assert code == 2
    assert "--m-max" in err


def test_scan_range_and_progression_together_are_a_usage_error(capsys):
    # one of them would be ignored: --m-max 3 with 5:4 reported m_max 5
    with pytest.raises(SystemExit) as exc:
        main(["scan", "partition", "--mod", "5", "--m-max", "3", "--progression", "5:4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qsift scan [-h]")
    assert captured.err.endswith(
        "qsift scan: error: argument --progression: not allowed with argument --m-max\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("theta_g1", "--mod", "3", "--m-max", "3"),
        ("partition", "--mod", "1", "--m-max", "3"),
        ("partition", "--mod", "5", "--m-max", "0"),
    ],
    ids=["rational-series", "modulus-1", "m-max-0"],
)
def test_scan_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, "scan", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "spec, ell, prog, budget",
    [
        ("partition", 5, "5:4", 600),
        ("partition", 5, "7:3", 600),
        ("partition", 5, "5:9", 600),  # t is normalized into [0, m)
        ("mock_f", 3, "30:29", 2000),
        ("cubic", 3, "3:2", 300),
    ],
)
def test_scan_single_progression_matches_filtered_scan(
    capsys, report_json_oracle, report_csv_oracle, spec, ell, prog, budget, fmt
):
    code, out, _ = run(
        capsys, "scan", spec, "--mod", str(ell), "--progression", prog,
        "--budget", str(budget), "--format", fmt,
    )
    assert code == 0
    m, t = (int(x) for x in prog.split(":"))
    full = scan(build_series(spec, budget, ell), ell, m, series_name=spec)
    kept = [v for v in full.verdicts if (v.m, v.t) == (m, t % m)]
    if fmt == "json":
        expected = json.dumps(report_json_oracle(full, kept), indent=2) + "\n"
    else:
        expected = report_csv_oracle(kept)
    assert out == expected


# (spec, ell, m_max or m:t, budget, the builds the scan makes): the probe,
# 16*m_max slots at most, and the budget when the probe leaves a progression
# open.  f and omega mod 3 have a witness for every progression in the probe;
# omega mod 2 and cphi2 mod 5 have candidates.
PROBE_SCANS = [
    ("mock_f", 3, 30, 2000, [480]),
    ("mock_omega", 3, 30, 2000, [480]),
    ("mock_omega", 2, 20, 2000, [320, 2000]),
    ("cphi2", 5, 10, 1000, [160, 1000]),
    ("mock_f", 3, 30, 30, [30]),  # a budget equal to m_max
    ("mock_omega", 3, 30, 479, [479]),  # a budget below 16*m_max
    ("partition", 5, "5:2", 600, [80]),
    ("partition", 5, "5:4", 600, [80, 600]),
]


def _library_scan(spec, ell, target, budget):
    series = build_series(spec, budget, ell)
    if isinstance(target, str):
        m, t = (int(x) for x in target.split(":"))
        return scan_progression(series, ell, Progression(m, t), spec)
    return scan(series, ell, target, series_name=spec)


def _scan_argv(spec, ell, target, budget, fmt="json"):
    where = ["--progression", target] if isinstance(target, str) else ["--m-max", str(target)]
    return ["scan", spec, "--mod", str(ell), *where, "--budget", str(budget), "--format", fmt]


def _spy_on_builds(monkeypatch):
    builds = []

    def spy(spec, prec, modulus=None):
        builds.append(prec)
        return build_series(spec, prec, modulus)

    monkeypatch.setattr("qsift.cli.build_series", spy)
    return builds


def _spy_on_cache(monkeypatch):
    """(loads, stores): the length of each entry the cache loads (None for
    a miss) and stores."""
    loads, stores = [], []
    load, store = qsift.cli._load_cached, qsift.cli._store_cached

    def load_spy(cache_dir, key):
        series = load(cache_dir, key)
        loads.append(series and series.prec)
        return series

    def store_spy(cache_dir, key, series):
        stores.append(series.prec)
        store(cache_dir, key, series)

    monkeypatch.setattr("qsift.cli._load_cached", load_spy)
    monkeypatch.setattr("qsift.cli._store_cached", store_spy)
    return loads, stores


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("spec, ell, target, budget, limits", PROBE_SCANS)
def test_scan_prints_the_library_report_on_the_full_budget(
    capsys, monkeypatch, spec, ell, target, budget, limits, fmt
):
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(capsys, *_scan_argv(spec, ell, target, budget, fmt))
    assert code == 0
    assert builds == limits
    report = _library_scan(spec, ell, target, budget)
    assert out == (report.to_json() + "\n" if fmt == "json" else report.to_csv())


@pytest.mark.parametrize("spec, ell, target, budget, limits", PROBE_SCANS)
def test_a_scan_caches_the_build_it_read_and_a_warm_scan_builds_nothing(
    tmp_path, capsys, monkeypatch, spec, ell, target, budget, limits
):
    # a probe that leaves a progression open is not stored: the entry is
    # loaded once, and only the last build is written
    cache_dir = str(tmp_path / "cache")
    argv = ["--cache-dir", cache_dir, *_scan_argv(spec, ell, target, budget)]
    builds = _spy_on_builds(monkeypatch)
    loads, stores = _spy_on_cache(monkeypatch)
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    assert builds == limits
    assert (loads, stores) == ([None], limits[-1:])
    entry = _cache_path(cache_dir, _series_key(spec, ell))
    assert os.listdir(cache_dir) == [os.path.basename(entry)]
    builds.clear()
    loads.clear()
    stores.clear()
    code, warm, _ = run(capsys, *argv)
    assert code == 0
    assert warm == cold
    assert (builds, loads, stores) == ([], limits[-1:], [])
    assert os.listdir(cache_dir) == [os.path.basename(entry)]


class _MappedSlots(bytes):
    """Residue bytes that log the index of every slot a slice of them
    covers: ``scanner._first_nonzero`` reads its slots by single index
    only for verdicts, and maps them to 0 or 1 slice by slice."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.log.extend(range(*key.indices(len(self))))
        return super().__getitem__(key)


def test_a_failed_probe_search_goes_on_into_the_budget(capsys, monkeypatch):
    # omega mod 2 at m <= 40 leaves progressions open in its 640-slot probe,
    # some of them true congruences, so the one search maps every slot of
    # the 5000-slot budget once, and none twice
    mapped, searches = [], []
    search = qsift.scanner._first_nonzero

    def logged(slots):
        slots = _MappedSlots(slots)
        slots.log = mapped
        return slots

    def spy(slots, m_max, rest=None):
        searches.append(m_max)
        return search(logged(slots), m_max, rest and (lambda: logged(rest())))

    monkeypatch.setattr("qsift.scanner._first_nonzero", spy)
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(capsys, *_scan_argv("mock_omega", 2, 40, 5000))
    assert code == 0
    assert (builds, searches) == ([640, 5000], [40])
    assert sorted(mapped) == list(range(5000))
    assert out == _library_scan("mock_omega", 2, 40, 5000).to_json() + "\n"


def test_scan_csv_format(capsys):
    code, out, _ = run(
        capsys, "scan", "partition", "--mod", "5", "--m-max", "2",
        "--budget", "100", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "m,t,status,n,value,checked"
    # LF, as expand's CSV: a CRLF block would double its CR on a stdout
    # that translates newlines
    assert "\r" not in out and out.endswith("\n")


# ------------------------------------------------------------- identities


def test_identities_pass(capsys):
    code, out, _ = run(capsys, "identities", "--trials", "8")
    assert code == 0
    assert out.count("pass") == 9


def test_identities_deterministic(capsys):
    _, out1, _ = run(capsys, "identities", "--trials", "6", "--seed", "5")
    _, out2, _ = run(capsys, "identities", "--trials", "6", "--seed", "5")
    assert out1 == out2


def test_identities_negative_control(capsys):
    code, out, err = run(
        capsys, "identities", "--trials", "40", "--negative-control"
    )
    assert code == 5
    assert "FAIL" in out
    assert "failing instance" in err


@pytest.mark.parametrize(
    "argv", [["--trials", "-5"], ["--trials", "0", "--negative-control"]]
)
def test_identities_rejects_a_nonpositive_trial_count(capsys, argv):
    code, out, err = run(capsys, "identities", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: trials must be positive\n"


# ------------------------------------------------------------- cusp-check


def test_cusp_check_f(capsys):
    code, out, _ = run(capsys, "cusp-check", "f", "--Q", "5")
    assert code == 0
    assert "t=1 ok" in out and "t=2 ok" in out


def test_cusp_check_omega(capsys):
    code, out, _ = run(capsys, "cusp-check", "omega", "--Q", "7")
    assert code == 0


def test_cusp_check_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cusp-check", "f", "--Q", "6"])
    assert exc.value.code == 2
    # the top-level parser's usage, then its error line
    err = capsys.readouterr().err
    assert err.startswith("usage: qsift [-h] [--cache-dir CACHE_DIR]")
    assert err.endswith("qsift: error: --Q must be coprime to 6 for kind f (got 6)\n")


@pytest.mark.parametrize("kind, Q", [("f", "-5"), ("f", "0"), ("omega", "-7")])
def test_cusp_check_q_below_one_is_a_usage_error(capsys, kind, Q):
    # -5 is coprime to 6: what is wrong with it is its sign
    with pytest.raises(SystemExit) as exc:
        main(["cusp-check", kind, "--Q", Q])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qsift [-h] [--cache-dir CACHE_DIR]")
    assert err.endswith(f"qsift: error: --Q must be positive (got {Q})\n")


def test_cusp_check_explicit_t(capsys):
    code, out, _ = run(capsys, "cusp-check", "f", "--Q", "7", "--t", "3")
    assert code == 0
    assert "t=3 ok" in out


@pytest.mark.parametrize("Q", ["2", "4", "8", "16"])
def test_cusp_check_omega_without_good_residue(capsys, Q):
    # Q a power of 2 has no odd prime to certify a good residue: checking
    # nothing must not pass
    code, out, err = run(capsys, "cusp-check", "omega", "--Q", Q)
    assert code == 2
    assert out == ""
    assert err == f"error: no good residue mod {Q} for kind omega; pass --t\n"


def test_cusp_check_omega_power_of_two_with_explicit_t(capsys):
    code, out, _ = run(capsys, "cusp-check", "omega", "--Q", "2", "--t", "1")
    assert code == 0
    assert out == "kind=omega Q=2 t=1 ok\n"


def test_cusp_check_failure_exit_code(capsys, monkeypatch):
    from qsift.arith import ExactScalar

    # the binding transform.cusp_identity calls
    monkeypatch.setattr(
        "qsift.transform.cusp_half_leading", lambda Q, t: ExactScalar.one()
    )
    code, out, err = run(capsys, "cusp-check", "f", "--Q", "5")
    assert code == 6
    assert "MISMATCH" in out
    assert "expected" in err


# ------------------------------------------------------------------ info


def test_info_cubic(capsys):
    code, out, _ = run(capsys, "info", "cubic", "--ell", "3", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["applies"] is False
    assert payload["reasons"] == ["ell-divides-B"]
    assert payload["B"] == -3
    assert payload["pole_at_infinity"] is True


def test_info_crank(capsys):
    code, out, _ = run(capsys, "info", "crank_diff", "--ell", "2", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["applies"] is True
    assert payload["reasons"] == []
    assert payload["weight"] == "1/2"


def test_info_core4(capsys):
    code, out, _ = run(capsys, "info", "core4", "--ell", "2", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["applies"] is False
    assert "no-pole" in payload["reasons"]


@pytest.mark.parametrize("m", ["0", "-2"])
def test_info_rejects_a_nonpositive_m(capsys, m):
    code, out, err = run(capsys, "info", "partition", "--ell", "3", "--m", m)
    assert code == 2
    assert out == ""
    assert err == "error: m must be positive\n"


def test_info_sturm_hint_is_exact_at_a_large_level(capsys):
    code, out, _ = run(capsys, "info", "1000000007^-1", "--ell", "2", "--m", "5")
    assert code == 0
    assert json.loads(out)["sturm_budget_hint"] == 41666667250000002


def test_info_reports_the_level_after_the_mod_ell_rewrite(capsys):
    # mod 2, E_5^2 = E_10 cancels E_10^-1: only E_1^-1 is left, while the
    # level of the spec as given, the q_divisor and the verdict stay
    code, out, _ = run(capsys, "info", "1^-1,5^2,10^-1", "--ell", "2", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["level_mod_ell"] == 1
    assert payload["lattice_mod_ell"] == 1
    assert payload["level"] == 10
    assert payload["q_divisor"] == 5
    assert payload["applies"] is True


@pytest.mark.parametrize(
    "spec, ell, level, lattice",
    [
        ("cphi2", 2, 8, 2),  # E_1^-4 = E_4^-1, E_4^-2 = E_8^-1 mod 2; E_2^5 stays
        ("1^2,2^-1", 2, 1, 0),  # E_1^2 / E_2 = 1 mod 2: no delta is left
        ("3^1,6^-2", 3, 6, 3),  # no exponent divisible by 3: unchanged
    ],
)
def test_info_level_and_lattice_are_lcm_and_gcd_of_the_rewritten_deltas(
    capsys, spec, ell, level, lattice
):
    code, out, _ = run(capsys, "info", spec, "--ell", str(ell), "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert (payload["level_mod_ell"], payload["lattice_mod_ell"]) == (level, lattice)


def _ell_free(n: int, ell: int) -> int:
    while n and n % ell == 0:
        n //= ell
    return n


def test_info_prints_the_library_level_and_lattice(
    capsys, ell_level_oracle, ell_lattice_oracle
):
    # every catalog eta-quotient, ell in (2, 3), m <= 12: info prints
    # generators.level_mod_ell, whose ell-free parts the oracles give
    specs = [(e.name, e.spec) for e in catalog() if isinstance(e.spec, EtaQuotientSpec)]
    assert len(specs) == 8
    for name, spec in specs:
        for ell in (2, 3):
            level, lattice = level_mod_ell(spec, ell)
            assert _ell_free(level, ell) == ell_level_oracle(spec.factors, ell)
            assert _ell_free(lattice, ell) == ell_lattice_oracle(spec.factors, ell)
            for m in range(1, 13):
                argv = ("info", name, "--ell", str(ell), "--m", str(m))
                code, out, _ = run(capsys, *argv)
                assert code == 0
                payload = json.loads(out)
                printed = (payload["level_mod_ell"], payload["lattice_mod_ell"])
                assert printed == (level, lattice), (name, ell, m)


def test_info_rejects_mock(capsys):
    code, _, err = run(capsys, "info", "mock_f", "--ell", "3", "--m", "5")
    assert code == 2
    assert "eta-quotient" in err


# ------------------------------------------------------------ error exits


# each case is named by its argv alone, so rewording a message renames
# no case
_ERROR_EXITS = [
    ("expand nosuch", 3, "unknown series 'nosuch'"),
    ("expand 1^0", 2, "exponents must be nonzero"),
    ("expand 2^", 2, "malformed eta-quotient spec '2^'"),
    ("expand partition --limit 0", 2, "--limit must be positive, got 0"),
    ("expand partition --mod 1", 2, "modulus must be an integer >= 2"),
    (
        "expand theta_g0 --mod 3",
        2,
        "theta series have rational coefficients; no reduction",
    ),
    ("scan nosuch --mod 3 --m-max 3", 3, "unknown series 'nosuch'"),
    ("scan 1^1,1^2 --mod 3 --m-max 3", 2, "deltas must be pairwise distinct"),
    (
        "scan partition --mod 5 --m-max 5 --budget 0",
        4,
        "budget 0 cannot cover m_max 5",
    ),
    (
        "scan partition --mod 5 --progression 5:4 --budget 3",
        4,
        "budget 3 cannot cover m_max 5",
    ),
    (
        "scan partition --mod 5 --m-max 50 --budget 10",
        4,
        "budget 10 cannot cover m_max 50",
    ),
    (
        "scan partition --mod 5 --progression x",
        2,
        "--progression wants m:t, got 'x'",
    ),
    (
        "scan partition --mod 5 --progression 0:1",
        2,
        "m must be a positive integer",
    ),
    ("scan partition --mod 5", 2, "need --m-max or --progression"),
    ("scan partition --mod 5 --m-max 0", 2, "m_max must be positive, got 0"),
    ("scan partition --mod 1 --m-max 5", 2, "modulus must be an integer >= 2"),
    (
        "scan theta_g1 --mod 3 --m-max 3",
        2,
        "theta series have rational coefficients; no reduction",
    ),
    ("identities --trials 0", 2, "trials must be positive"),
    (
        "cusp-check omega --Q 4",
        2,
        "no good residue mod 4 for kind omega; pass --t",
    ),
    (
        "info mock_f --ell 3 --m 5",
        2,
        "'mock_f' is not an eta-quotient; no applicability report",
    ),
    (
        "info theta_g1 --ell 3 --m 5",
        2,
        "'theta_g1' is -1/6 times the eta-quotient 1^5,2^-2, and -1/6 is not a unit"
        " mod 6; no applicability report",
    ),
    ("info partition --ell 3 --m 0", 2, "m must be positive"),
    ("info nosuch --ell 3 --m 5", 3, "unknown series 'nosuch'"),
    ("info 1^x --ell 3 --m 5", 2, "malformed eta-quotient spec '1^x'"),
]


@pytest.mark.parametrize(
    "argv, code, message", _ERROR_EXITS, ids=[argv for argv, _, _ in _ERROR_EXITS]
)
def test_error_exit_is_pinned(capsys, argv, code, message):
    # each failure: its exit code, nothing on stdout, one error line on stderr
    assert run(capsys, *argv.split()) == (code, "", f"error: {message}\n")


# ----------------------------------------------------------------- cache


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["--cache-dir", cache_dir, "expand", "partition", "--limit", "30"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    files = os.listdir(cache_dir)
    assert len(files) == 1
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2  # cache hit is observationally invisible
    assert os.listdir(cache_dir) == files


def test_a_longer_limit_replaces_the_entry_which_serves_a_shorter_one(
    tmp_path, capsys, monkeypatch
):
    cache_dir = tmp_path / "cache"
    run(capsys, "--cache-dir", str(cache_dir), "expand", "partition", "--limit", "10")
    code, out, _ = run(
        capsys, "--cache-dir", str(cache_dir), "expand", "partition", "--limit", "12"
    )
    assert code == 0
    assert len(json.loads(out)["coefficients"]) == 12
    (entry,) = cache_dir.iterdir()  # one entry per series and ring, now of 12 slots
    assert len(json.loads(_read_entry(entry)[1])) == 12
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(
        capsys, "--cache-dir", str(cache_dir), "expand", "partition", "--limit", "10"
    )
    assert code == 0
    assert builds == []
    assert json.loads(out)["coefficients"] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def _entry_length(cache_dir):
    """The slots of the one entry in ``cache_dir``, a series over Z/m, m <= 256."""
    (entry,) = Path(cache_dir).iterdir()
    return len(_read_entry(entry)[1])


@pytest.mark.parametrize(
    "budget, m, t, slot",
    [
        (200, 19, 12, 240),  # the probe is the budget: 200 < 16 * 40
        (1000, 27, 13, 1066),  # the probe takes 1000 of the entry's slots
    ],
)
def test_a_scan_reads_no_slot_past_its_budget_from_a_longer_entry(
    tmp_path, capsys, monkeypatch, budget, m, t, slot
):
    # omega = sum q^(6j^2+4j) (mod 2): (m, t) has no exponent below the
    # budget and one, `slot`, in the 5000-slot entry, so it is a candidate
    # whose `checked` comes from the budget
    assert slot == min(e for j in range(-40, 41) if (e := 6 * j * j + 4 * j) % m == t)
    cache_dir = str(tmp_path / "cache")
    code, _, _ = run(capsys, "--cache-dir", cache_dir, *_scan_argv("mock_omega", 2, 40, 5000))
    assert code == 0 and _entry_length(cache_dir) == 5000
    argvs = [_scan_argv("mock_omega", 2, 40, budget, fmt) for fmt in ("json", "csv")]
    uncached = [run(capsys, *argv)[1] for argv in argvs]
    builds = _spy_on_builds(monkeypatch)
    for argv, expected in zip(argvs, uncached):
        assert run(capsys, "--cache-dir", cache_dir, *argv) == (0, expected, "")
    assert builds == []
    verdicts = json.loads(uncached[0])["verdicts"]
    (verdict,) = (v for v in verdicts if (v["m"], v["t"]) == (m, t))
    assert verdict == {"m": m, "t": t, "status": "candidate", "checked": (budget - 1 - t) // m}
    assert _entry_length(cache_dir) == 5000


@pytest.mark.parametrize("mod", [None, 5])  # a JSON entry over Z, a byte entry over Z/5
def test_an_expand_shorter_than_the_entry_builds_nothing(tmp_path, capsys, monkeypatch, mod):
    cache_dir = str(tmp_path / "cache")
    ring = [] if mod is None else ["--mod", str(mod)]
    run(capsys, "--cache-dir", cache_dir, "expand", "partition", "--limit", "40", *ring)
    for fmt in ("json", "csv"):
        argv = ["expand", "partition", "--limit", "12", *ring, "--format", fmt]
        _, uncached, _ = run(capsys, *argv)
        builds = _spy_on_builds(monkeypatch)
        code, out, _ = run(capsys, "--cache-dir", cache_dir, *argv)
        assert code == 0
        assert builds == []
        assert out == uncached
    (entry,) = Path(cache_dir).iterdir()
    assert _read_entry(entry)[0]["length"] == len(_read_entry(entry)[1])


def test_an_entry_shorter_than_the_probe_is_rebuilt_and_replaced(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    run(capsys, "--cache-dir", cache_dir, "expand", "mock_f", "--limit", "100", "--mod", "3")
    assert _entry_length(cache_dir) == 100
    argv = _scan_argv("mock_f", 3, 30, 2000)
    _, uncached, _ = run(capsys, *argv)
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(capsys, "--cache-dir", cache_dir, *argv)
    assert code == 0
    assert out == uncached
    assert builds == [480]
    assert _entry_length(cache_dir) == 480


def test_a_torn_long_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    run(capsys, "--cache-dir", str(cache_dir), "expand", "mock_f", "--limit", "400", "--mod", "3")
    (entry,) = cache_dir.iterdir()
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) - 200])  # the header and 200 of the 400 slots
    argv = ["expand", "mock_f", "--limit", "10", "--mod", "3"]
    _, uncached, _ = run(capsys, *argv)
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(capsys, "--cache-dir", str(cache_dir), *argv)
    assert code == 0
    assert out == uncached
    assert builds == [10]
    assert _entry_length(cache_dir) == 10  # the build replaced the torn entry


def test_cache_key_names_the_series_not_its_spelling(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "cache")

    def scan_as(spelling):
        argv = ["--cache-dir", cache_dir, "scan", spelling, "--mod", "2", "--m-max", "6"]
        return run(capsys, *argv, "--budget", "300")

    code, first, _ = scan_as("2^5,1^-4,4^-2")
    assert code == 0
    files = os.listdir(cache_dir)
    assert len(files) == 1
    builds = []
    monkeypatch.setattr(
        "qsift.cli.build_series", lambda *args: builds.append(args) or build_series(*args)
    )
    for spelling in ("cphi2", "1^-4,2^5,4^-2"):  # the catalog name, the sorted factors
        code, out, _ = scan_as(spelling)
        assert code == 0
        assert json.loads(out)["verdicts"] == json.loads(first)["verdicts"]
    assert builds == []
    assert os.listdir(cache_dir) == files


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv("QSIFT_CACHE_DIR", cache_dir)
    code, _, _ = run(capsys, "expand", "partition", "--limit", "8")
    assert code == 0
    assert len(os.listdir(cache_dir)) == 1


def test_corrupt_cache_entry_recomputed(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run(capsys, "--cache-dir", str(cache_dir), "expand", "partition", "--limit", "6")
    (entry,) = cache_dir.iterdir()
    entry.write_text("{not json")
    code, out, _ = run(
        capsys, "--cache-dir", str(cache_dir), "expand", "partition", "--limit", "6"
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 1, 2, 3, 5, 7]


def test_truncated_cache_entry_rebuilt(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "40"]
    _, whole, _ = run(capsys, *args)
    (entry,) = cache_dir.iterdir()
    text = entry.read_text()
    entry.write_text(text[: len(text) // 2])
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]
    assert entry.read_text() == text  # rewritten whole, no temp file left


def test_interrupted_cache_write_leaves_no_entry(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "20"]
    real_open = open

    class TornFile:  # writes half of the first chunk, then the disk is full
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    def torn_open(path, mode="r", *rest, **kwargs):
        fh = real_open(path, mode, *rest, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr("qsift.cli.open", torn_open, raising=False)
    code, out, err = run(capsys, *args)
    assert code == 0
    assert "cache write failed" in err
    assert list(cache_dir.iterdir()) == []
    monkeypatch.undo()
    code, again, _ = run(capsys, *args)
    assert code == 0
    assert again == out


def test_cache_entry_under_old_key_shape_is_a_miss(tmp_path, capsys):
    # the key before it carried a version: same fields, no "version"
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    old_key = {"series": "partition", "ring": "Z", "limit": 6, "modulus": None}
    wrong = {
        "series": "partition",
        "offset": "-1/24",
        "ring": "Z",
        "modulus": None,
        "coefficients": [9, 9, 9, 9, 9, 9],
        "key": old_key,
    }
    Path(_cache_path(str(cache_dir), old_key)).write_text(json.dumps(wrong))
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "6"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 1, 2, 3, 5, 7]
    # an old-shape key inside an entry at the current path is refused too
    new_key = _series_key("partition", None)
    assert new_key != old_key and new_key["version"] >= 2
    new_path = Path(_cache_path(str(cache_dir), new_key))
    assert new_path.exists()
    new_path.write_text(json.dumps(wrong))
    code, again, _ = run(capsys, *args)
    assert code == 0
    assert again == out


def _read_entry(path):
    """The (header, payload) of a cache entry."""
    header, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(header), payload


def _write_entry(path, header, payload):
    """Write an entry whose header carries the digest of ``payload``."""
    header = dict(header, sha256=hashlib.sha256(payload).hexdigest())
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_cache_entry_with_coerced_coefficients_is_rebuilt(tmp_path, capsys):
    # reducing mod 7 would serve the residue bytes [1, 8, 3, 1, 5] as the
    # wrong [1, 1, 3, 1, 5]; length and digest match, so only "below m" refuses
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "5",
            "--mod", "7"]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(whole)["coefficients"] == [1, 1, 2, 3, 5]
    (entry,) = cache_dir.iterdir()
    header, payload = _read_entry(entry)
    assert payload == bytes([1, 1, 2, 3, 5])
    _write_entry(entry, header, bytes([1, 8, 3, 1, 5]))
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert _read_entry(entry)[1] == bytes([1, 1, 2, 3, 5])


def _set(field, value):
    def corrupt(header):
        header[field] = value
        return header

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _set("ring", "foo"),
        lambda header: [header],
        _set("ring", 7),
        _set("ring", "Z/6"),  # every stored residue is below 6 too
        lambda header: "[" * 10**5 + "]" * 10**5,  # too deep for json.loads
    ],
    ids=["ring-foo", "list", "ring-7", "ring-Z/6", "deep"],
)
def test_cache_entry_of_the_wrong_shape_is_rebuilt(tmp_path, capsys, corrupt):
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "5",
            "--mod", "7"]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    header, payload = _read_entry(entry)
    corrupted = corrupt(header)
    line = corrupted if type(corrupted) is str else json.dumps(corrupted)
    entry.write_bytes(line.encode() + b"\n" + payload)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert _read_entry(entry)[0]["ring"] == "Z/7"


@pytest.mark.parametrize(
    "edit",
    [_set("offset", "1/7"), _set("offset", "1/0"), _set("offset", [1]), _set("extra", "1/7")],
    ids=["offset-1/7", "offset-1/0", "offset-list", "extra-key"],
)
@pytest.mark.parametrize("mod", [7, None, 355], ids=["Z/7", "Z", "Z/355"])
def test_a_cache_load_takes_the_offset_from_the_series(tmp_path, capsys, monkeypatch, mod, edit):
    # residue bytes, and JSON lists over Z and over Z/m, m > 256: the header
    # stores no offset, and one written there, like any other extra field,
    # is not read
    cache_dir = tmp_path / "cache"
    ring = [] if mod is None else ["--mod", str(mod)]
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "5", *ring]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(whole)["offset"] == "-1/24"
    (entry,) = cache_dir.iterdir()
    header, payload = _read_entry(entry)
    assert set(header) == {"key", "ring", "length", "sha256"}
    assert set(header["key"]) == {"version", "series", "ring"}
    entry.write_bytes(json.dumps(edit(header)).encode() + b"\n" + payload)
    builds = _spy_on_builds(monkeypatch)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert builds == []  # the entry was loaded, not rebuilt
    assert out == whole


def _flip_a_byte(entry):  # a valid residue, so only the digest tells
    header, payload = _read_entry(entry)
    entry.write_bytes(json.dumps(header).encode() + b"\n" + payload[:-1] + b"\x04")


def _truncate(entry):  # the digest is of the shorter payload: only the length tells
    header, payload = _read_entry(entry)
    _write_entry(entry, header, payload[:-1])


def _version_2_entry(key_version):
    def write(entry):
        key = dict(_read_entry(entry)[0]["key"], version=key_version)
        old = {"series": "partition", "offset": "-1/24", "ring": "Z/7",
               "modulus": 7, "coefficients": [1, 1, 2, 3, 4], "key": key}
        entry.write_text(json.dumps(old))

    return write


@pytest.mark.parametrize(
    "corrupt",
    [_flip_a_byte, _truncate, _version_2_entry(2), _version_2_entry(3)],
    ids=["flipped-byte", "truncated", "version-2", "version-2-layout-current-key"],
)
def test_cache_entry_with_a_bad_payload_is_rebuilt(tmp_path, capsys, corrupt):
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "5",
            "--mod", "7"]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    written = entry.read_bytes()
    corrupt(entry)
    assert entry.read_bytes() != written
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert entry.read_bytes() == written


@pytest.mark.parametrize(
    "ring, coefficients",
    [
        ("Z/7", [1, 1, 2, 3, 7]),  # out of [0, m)
        ("Z/7", [1, 1, 2, 3, -2]),
        ("Z/7", [1, 1, 2.0, 3, 5]),
        ("Z", [1, 1, 2, 3, False]),
        ("Z", "11235"),
        ("Q", [1, "1", "2", "3", "5"]),
        ("Z/7", bytes([1, 1, 2, 3, 7])),  # residue bytes: a byte >= m
        ("Z/7", bytes([6, 255])),
        ("Z/7", b""),  # no slot
    ],
)
def test_payload_rejects_what_the_writer_never_stores(ring, coefficients, payload_oracle):
    payload = {"offset": "0", "ring": ring, "coefficients": coefficients}
    with pytest.raises(ValueError):
        payload_oracle(payload)


@pytest.mark.parametrize(
    "field, value",
    [("ring", 7), ("offset", [1]), ("offset", 0)],
    ids=["ring-7", "offset-list", "offset-0"],
)
def test_payload_rejects_a_ring_or_offset_that_is_not_a_string(field, value, payload_oracle):
    # expand writes both as strings; a cache entry stores neither, so only
    # this reader checks them
    payload = {"offset": "-1/24", "ring": "Z/7", "coefficients": [1, 1, 2, 3, 5], field: value}
    with pytest.raises(ValueError, match="is not a string"):
        payload_oracle(payload)


@pytest.mark.parametrize(
    "payload", [bytes([1, 1, 2, 3, 7]), b""], ids=["byte-m", "empty"]
)
def test_cache_entry_with_residues_out_of_range_is_rebuilt(tmp_path, capsys, payload):
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "partition", "--limit", "5",
            "--mod", "7"]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    written = entry.read_bytes()
    header, _ = _read_entry(entry)
    # length and digest match the payload, so only its residues can refuse it
    _write_entry(entry, dict(header, length=len(payload)), payload)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert entry.read_bytes() == written


@pytest.mark.parametrize("key_ring", ["Z", "Q"])
def test_cache_entry_over_q_is_rebuilt(tmp_path, capsys, key_ring):
    # the theta series were once cached over Q, a ring that no longer
    # exists; an entry over Q at a theta key's path is a miss
    cache_dir = tmp_path / "cache"
    args = ["--cache-dir", str(cache_dir), "expand", "theta_g1", "--limit", "8"]
    code, whole, _ = run(capsys, *args)
    assert code == 0
    (entry,) = cache_dir.iterdir()
    written = entry.read_bytes()
    header, _ = _read_entry(entry)
    payload = json.dumps(json.loads(whole)["coefficients"]).encode()  # "-1/6", ...
    key = dict(header["key"], ring=key_ring)
    _write_entry(entry, dict(header, key=key, ring="Q", length=len(payload)), payload)
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == whole
    assert entry.read_bytes() == written


def test_cache_key_ring_comes_from_the_catalog_entry():
    theta = _series_key("theta_g1", None)  # named by its eta-quotient
    assert theta == _series_key(parse_series_spec("1^5,2^-2"), None)
    assert (theta["series"], theta["ring"]) == ("1^5,2^-2", "Z")
    assert _series_key("mock_f", 3)["ring"] == "Z/3"
    spec = parse_series_spec("1^-1")
    assert _series_key(spec, None)["ring"] == "Z"
    with pytest.raises(ValueError):
        _series_key("theta_g0", 3)


# ---------------------------------------------------------------- parser


def test_parse_series_spec():
    assert parse_series_spec("partition") == "partition"
    spec = parse_series_spec("1^-4,2^5,4^-2")
    assert isinstance(spec, EtaQuotientSpec)
    assert spec.B == -2


def test_stdout_is_pure_json(capsys):
    code, out, _ = run(capsys, "info", "eta5inv", "--ell", "2", "--m", "5")
    assert code == 0
    json.loads(out)  # must parse cleanly


def _python_dash_m_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("QSIFT_CACHE_DIR", None)
    return env


def test_python_dash_m_matches_main(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "qsift", "expand", "partition", "--limit", "6"],
        capture_output=True,
        text=True,
        env=_python_dash_m_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    code, out, _ = run(capsys, "expand", "partition", "--limit", "6")
    assert code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        "expand partition --limit 200000 --mod 5",
        "scan mock_f --mod 3 --m-max 300",
    ],
)
def test_closed_pipe_exits_141_in_silence(argv):
    # the reader takes one line and goes: far more than a pipe holds is
    # left to write, so the writer meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "qsift", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_python_dash_m_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()  # to the writer's exit
    assert first == b"{\n"
    assert proc.returncode == 141
    assert err == b""

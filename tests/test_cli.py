"""End-to-end CLI tests: exit codes, record formats, determinism."""

import csv
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from pstar.blocks import half_counts_direct
from pstar.cli import EX_DOMAIN, EX_OK, EX_RESOURCE, EX_USAGE, main
from pstar.primes import build_cache

REFERENCE_C0 = 2_953_652_287


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json_lines(out):
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["record"] == "manifest"
    results = [line for line in lines[1:] if line["record"] == "result"]
    assert len(results) == len(lines) - 1
    return lines[0], results


SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_out_scipy_integrate():
    # numpy is the only runtime dependency: start-up loads no scipy module
    code = ("import pstar.cli, sys; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("argv", [
    ["bound", "--k", "1e12", "--lambda", "0"],
    ["verify", "--k", "30", "--classical", "--limit", "10000"],
    ["semigroup", "--x", "1000", "--k-norm", "10", "--limit", "10000"],
])
def test_cli_runs_without_scipy(argv):
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; "
            "from pstar.cli import main; "
            f"sys.exit(main({argv!r}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == EX_OK, done.stderr


# -- verify -------------------------------------------------------------------

def test_verify_classical_positive(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "30", "--classical",
                           "--limit", "1000")
    assert code == EX_OK
    manifest, results = parse_json_lines(out)
    assert manifest["command"] == "verify"
    assert results == [{"record": "result", "k": 30, "p_integer": True}]


def test_verify_classical_negative(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "8", "--classical",
                           "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    assert results[0]["p_integer"] is False


def test_verify_block_variant(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "4", "--block",
                           "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    assert results[0] == {"record": "result", "k": 4, "p_integer": True,
                          "variant": "block"}


def test_verify_general_params(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "5", "--alpha", "2",
                           "--beta", "30", "--gamma", "1", "--iota", "6",
                           "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    assert results[0]["pstar"] is True
    assert results[0]["total_mismatch"] == 0


def test_verify_rejects_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "1", "--classical")
    assert code == EX_DOMAIN
    assert "k must be >= 2" in err


def test_verify_needs_interval_without_mode_flags(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "5", "--limit", "1000")
    assert code == EX_DOMAIN
    assert "--alpha" in err


def test_verify_budget_exhaustion(capsys):
    # prime modulus just under the ceiling: the residue walk needs phi(k)
    # primes, far past what a 1000-entry sieve holds
    code, _, err = run_cli(capsys, "verify", "--k", "997", "--classical",
                           "--limit", "1000")
    assert code == EX_RESOURCE
    assert "ceiling" in err


# -- search -------------------------------------------------------------------

def test_search_census(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-k", "100", "--classical",
                           "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    assert [r["k"] for r in results] == [2, 4, 6, 12, 18, 30]
    assert all(r["p_integer"] for r in results)


def test_search_full_scan_agrees_with_census(capsys):
    code, out, _ = run_cli(capsys, "search", "--max-k", "40", "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    hits = [r["k"] for r in results if r["pstar"]]
    assert hits == [2, 4, 6, 12, 18, 30]
    assert len(results) == 39  # every scanned k reports a verdict


# -- counts -------------------------------------------------------------------

def test_counts_with_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k", "10", "--alpha", "1",
                           "--beta", "100", "--check", "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["match"] is True
    assert rec["first"] == rec["oracle_first"]
    assert rec["first"] + rec["second"] == 25  # pi(100)


def test_counts_per_block_csv(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k", "10", "--alpha", "23",
                           "--beta", "58", "--per-block", "--format", "csv",
                           "--limit", "1000")
    assert code == EX_OK
    comment_lines = [l for l in out.splitlines() if l.startswith("#")]
    assert any("command" in l for l in comment_lines)
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    assert [int(r["block"]) for r in rows] == [3, 4]
    assert {"case", "first", "second", "excess"} <= set(rows[0])


# -- bound and threshold --------------------------------------------------------

def test_bound_record_shape(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "1e12", "--lambda", "0")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["case"] == "origin"
    assert rec["positive"] is True
    assert set(rec["terms"]) == {"origin_excess", "block_error_budget",
                                 "start_budget", "surplus_budget",
                                 "half_block_log"}


def test_bound_primitives_record(capsys):
    code, out, _ = run_cli(capsys, "bound", "--k", "1e12", "--lambda", "1",
                           "--primitives")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["case"] == "offset-primitives"
    assert (rec["b"], rec["positive"]) == (761, False)
    assert rec["total"] == -3093.0095188306864


def test_bound_requires_lambda(capsys):
    code, _, err = run_cli(capsys, "bound", "--k", "1e12")
    assert code == EX_USAGE
    assert "--lambda" in err


def test_c0_reference_run(capsys):
    code, out, _ = run_cli(capsys, "c0", "--lambda", "0")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["first_positive"] == REFERENCE_C0
    cert = rec["certificate"]
    assert cert["domain_floor"] == REFERENCE_C0
    assert len(cert["tail_samples"]) == 100


def test_c0_unreachable_budget(capsys):
    code, _, err = run_cli(capsys, "c0", "--lambda", "5", "--d3", "0.5")
    assert code == EX_DOMAIN
    assert "c0" in err


# -- simulate -------------------------------------------------------------------

def test_simulate_deterministic_records(capsys):
    argv = ("simulate", "--k", "101", "-C", "1.0", "--trials", "500",
            "--seed", "9")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == EX_OK
    m1, r1 = parse_json_lines(out1)
    m2, r2 = parse_json_lines(out2)
    assert r1 == r2  # result records are the determinism contract
    m1.pop("timestamp"), m2.pop("timestamp")  # provenance only
    assert m1 == m2


def test_simulate_real_primes(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--k", "1009", "-C", "2",
                           "--trials", "1", "--seed", "0",
                           "--mode", "real-primes", "--limit", "400000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["f"] == 13_944
    assert rec["empirical"] == 0.0
    assert rec["generator"] == "numpy-PCG64/coupon-collector"


# -- semigroup --------------------------------------------------------------------

def test_semigroup_gaussian_summary(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--x", "10", "--k-norm", "10",
                           "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    rec = results[0]
    assert rec["instance"] == "gaussian"
    assert rec["prime_norms"] == 4
    assert (rec["first"], rec["second"]) == (3, 1)


def test_semigroup_norm_listing(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--semigroup", "gaussian",
                           "--x", "10", "--norms", "--limit", "1000")
    assert code == EX_OK
    _, results = parse_json_lines(out)
    assert [r["norm"] for r in results] == [2, 5, 5, 9]


# -- plumbing ---------------------------------------------------------------------

def test_usage_errors(capsys):
    assert run_cli(capsys, "frobnicate")[0] == EX_USAGE
    assert run_cli(capsys, "verify")[0] == EX_USAGE  # --k is required
    assert run_cli(capsys, "counts", "--k", "10", "--alpha", "1",
                   "--beta", "x")[0] == EX_USAGE


def test_output_file_and_cache_env(capsys, tmp_path, monkeypatch):
    cache_file = tmp_path / "primes.bin"
    out_file = tmp_path / "records.jsonl"
    monkeypatch.setenv("PSTAR_CACHE", str(cache_file))
    code, out, _ = run_cli(capsys, "verify", "--k", "30", "--classical",
                           "--limit", "2000", "--output", str(out_file))
    assert code == EX_OK
    assert out == ""  # nothing on stdout when --output is given
    assert cache_file.exists()  # built once, saved for reuse
    built_at = cache_file.stat().st_mtime_ns
    lines = out_file.read_text().strip().splitlines()
    assert json.loads(lines[1])["p_integer"] is True
    # second run must reuse the saved cache rather than rebuild it
    code, _, _ = run_cli(capsys, "verify", "--k", "30", "--classical",
                         "--limit", "2000")
    assert code == EX_OK
    assert cache_file.stat().st_mtime_ns == built_at
    # the file keeps its composite build ceiling, so a query at 2000 reuses it
    code, out, _ = run_cli(capsys, "counts", "--k", "10", "--alpha", "1",
                           "--beta", "2000", "--limit", "2000")
    assert code == EX_OK
    assert cache_file.stat().st_mtime_ns == built_at
    manifest, (record,) = parse_json_lines(out)
    assert manifest["cache_limit"] == 2000
    cache = build_cache(2_000)
    assert (record["first"], record["second"]) == half_counts_direct(cache, 10, 1, 2_000)


def test_version_1_cache_file_is_a_domain_error(capsys, tmp_path):
    # format 1 stored the prime list as u64 after magic, version and count
    cache_file = tmp_path / "v1.bin"
    primes = build_cache(2_000).primes_in(2, 2_000)
    cache_file.write_bytes(struct.pack("<4sIQ", b"PSTC", 1, primes.size)
                           + primes.astype("<u8").tobytes())
    code, out, err = run_cli(capsys, "verify", "--k", "30", "--classical",
                             "--cache", str(cache_file))
    assert code == EX_DOMAIN
    assert out == ""
    assert "unsupported cache version 1" in err

"""The benchmark's workloads: seeded operations, how to run them, answer checks.

Each workload builds its prime cache in ``setup`` and then produces one
*pass* of operations per ``operations(rng)`` call.  A pass has a fixed mix
of operation kinds; sizes inside each kind are drawn with stratified
(Latin-hypercube) sampling, so every seed gives different inputs but about
the same total work, which keeps whole-pass times comparable across seeds.

An operation that raises one of the errors the CLI maps to exit codes 2 and
69 (or a CLI call that exits with those codes) *failed*: it is counted, and
its input is listed.  A result that disagrees with an independent answer is
a *wrong answer* (:class:`CheckError`); it invalidates the run instead of
counting as slow.  Checks run outside the timed region.

The timed operations are drawn so that none of them fails: a half-block count ends at most at :func:`edge_beta`, the last
integer whose block still ends inside the sieve ceiling.  Beyond it,
``half_counts_formula`` currently raises ``SieveBudgetError`` although the
answer lies inside the ceiling, a known defect.  That edge is exercised by
``defect_probes``: a few inputs run once per run, outside the timed region,
reported in the run record and checked against the direct oracle once they
succeed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pstar import analytic, blocks, bounds, classify, coverage, precision, primes
from pstar import semigroup as semigroup_mod
from pstar.errors import (
    CacheFormatError,
    DomainError,
    SieveBudgetError,
    ThresholdNotFoundError,
)

HERE = Path(__file__).resolve().parent

FAILURES = (SieveBudgetError, DomainError, CacheFormatError, ThresholdNotFoundError)
CLI_FAILURE_CODES = (2, 69)
CLI_TIMEOUT_S = 120

CENSUS = [2, 4, 6, 12, 18, 30]
REFERENCE_C0 = 2_953_652_287


class Failed(Exception):
    """The operation was refused (budget or domain error); not a wrong answer."""


class CheckError(Exception):
    """The program gave a wrong answer."""


@dataclass
class Op:
    kind: str
    args: dict
    argv: list[str] = field(default_factory=list)  # CLI operations only

    def describe(self) -> dict:
        return {"kind": self.kind, **self.args}


def log_stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n log-uniform draws in [lo, hi], one per equal-width stratum of log x,
    in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def int_stratified(rng, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi], one per equal-width stratum, in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [int(v) for v in lo + np.floor(u * (hi - lo + 1))]


def log_ints(rng, n: int, lo: float, hi: float) -> list[int]:
    return [int(round(v)) for v in log_stratified(rng, n, lo, hi)]


def edge_beta(limit: int, k: int) -> int:
    """Largest beta whose block end (floor(beta/k) + 1) k is <= limit."""
    return (limit // k) * k - 1


def reference_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve kept in the benchmark, independent
    of pstar's packed sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def totient_omega(k: int) -> tuple[int, int]:
    phi, rem, omega, p = k, k, 0, 2
    while p * p <= rem:
        if rem % p == 0:
            omega += 1
            phi -= phi // p
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        omega += 1
        phi -= phi // rem
    return phi, omega


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Workload:
    name = ""
    ceiling = 0
    in_process = True

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.cache = None

    def setup(self) -> None:
        self.cache = None  # drop the previous cache before building again
        self.cache = primes.build_cache(self.ceiling)

    def operations(self, rng) -> list[Op]:
        raise NotImplementedError

    def defect_probes(self, rng) -> list[Op]:
        """Inputs on the known edge defect, run once per run, untimed."""
        return []

    def execute(self, op: Op, tracer=None):
        """Run one operation; returns plain values that can be compared."""
        try:
            return getattr(self, "_run_" + op.kind.replace("-", "_"))(**op.args)
        except FAILURES as exc:
            raise Failed(f"{type(exc).__name__}: {exc}") from exc

    def check(self, op: Op, result) -> None:
        getattr(self, "_check_" + op.kind.replace("-", "_"))(result, **op.args)

    def finish(self) -> dict:
        """Checks over the whole run; returns what they measured."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def file_bytes(self) -> int:
        return 0


class RankScan(Workload):
    """Random-access rank queries on a 1e8 cache held in memory."""

    name = "rank-scan"
    ceiling = 100_000_000
    SEARCH_OPS, SEARCH_SPAN, SEARCH_MAX_K = 4, 25, 2_000
    FORMULA_OPS, MAX_WIDTH = 32, 1_000_000
    EDGE_EVERY = 8  # one formula query in 8 ends in the ceiling's last block
    THETA_POINTS = 128  # one operation each, so they set the median latency
    ROWS_K, ROWS_TOP = 1_000, 10_000_000

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.ref = reference_primes(self.ROWS_TOP)

    def operations(self, rng):
        ops = [Op("search", {"k_lo": k0, "k_hi": k0 + self.SEARCH_SPAN})
               for k0 in int_stratified(rng, self.SEARCH_OPS, 2,
                                        self.SEARCH_MAX_K - self.SEARCH_SPAN)]
        ks = log_ints(rng, self.FORMULA_OPS, 2, 1e6)
        widths = log_ints(rng, self.FORMULA_OPS, 1e3, self.MAX_WIDTH)
        for i, (k, width) in enumerate(zip(ks, widths)):
            top = edge_beta(self.ceiling, k)
            beta = top if i % self.EDGE_EVERY == 0 else int(rng.integers(width, top + 1))
            ops.append(Op("formula", {"k": k, "alpha": beta - width + 1, "beta": beta}))
        # The query with the most blocks (smallest k, widest interval) runs in
        # every pass, so the pass's peak memory does not depend on the seed.
        alpha = int(rng.integers(1, self.ceiling - 2 * self.MAX_WIDTH))
        ops.append(Op("formula", {"k": 2, "alpha": alpha, "beta": alpha + self.MAX_WIDTH - 1}))
        lo, hi = math.log(analytic.EPSILON_MIN_X), math.log(self.ceiling)
        u = (np.arange(self.THETA_POINTS) + rng.random(self.THETA_POINTS)) / self.THETA_POINTS
        ops.extend(Op("theta", {"x": float(x)}) for x in np.exp(lo + u * (hi - lo)))
        ops.append(Op("rows", {
            "k": self.ROWS_K,
            "alpha": 1 + int(rng.integers(0, self.ROWS_K)),
            "beta": self.ROWS_TOP - int(rng.integers(0, self.ROWS_K)),
        }))
        return [ops[i] for i in rng.permutation(len(ops))]

    def defect_probes(self, rng):
        k, width = log_ints(rng, 1, 2, 1e6)[0], log_ints(rng, 1, 1e3, self.MAX_WIDTH)[0]
        return [Op("formula", {"k": 1_000_000, "alpha": 1, "beta": self.ceiling}),
                Op("formula", {"k": k, "alpha": self.ceiling - width + 1,
                               "beta": self.ceiling})]

    def _run_search(self, k_lo, k_hi):
        cache = self.cache
        found = classify.search(cache, range(k_lo, k_hi),
                                lambda k: classify.classical_params(cache, k))
        return [(k, verdict.is_pstar) for k, verdict in found]

    def _check_search(self, result, k_lo, k_hi):
        expected = []
        for k in range(k_lo, k_hi):
            phi, omega = totient_omega(k)
            hit = {int(p) % k for p in self.ref[: phi + omega]}
            expected.append((k, all(r in hit for r in range(1, k) if math.gcd(r, k) == 1)))
        expect(result == expected, f"search verdicts differ on k in [{k_lo}, {k_hi})")

    def _run_formula(self, k, alpha, beta):
        return blocks.half_counts_formula(self.cache, blocks.classify_case(k, alpha, beta))

    def _check_formula(self, result, k, alpha, beta):
        direct = blocks.half_counts_direct(self.cache, k, alpha, beta)
        expect(result == direct, f"half_counts_formula {result} != direct {direct}")

    def _run_theta(self, x):
        """|theta(x) - x| < x epsilon(x), re-decided in extended precision
        when the margin is thin."""
        cache = self.cache

        def extended():
            xl = np.longdouble(x)
            return abs(cache.theta_extended(x) - xl), xl * analytic.epsilon(xl)

        return precision.strictly_less(abs(cache.theta(x) - x),
                                       x * float(analytic.epsilon(x)), extended=extended)

    def _check_theta(self, result, x):
        expect(result, f"theta envelope fails at x={x}")

    def _run_rows(self, k, alpha, beta):
        rows = blocks.block_rows(self.cache, blocks.classify_case(k, alpha, beta))
        return [(r["block"], r["first"], r["second"], r["excess"]) for r in rows]

    def _check_rows(self, result, k, alpha, beta):
        lam, big = alpha // k, beta // k
        ref = self.ref[(self.ref >= (lam + 1) * k) & (self.ref < big * k)]
        block = ref // k - (lam + 1)
        first = 2 * (ref % k) <= k
        n = big - lam - 1
        f = np.bincount(block[first], minlength=n)
        s = np.bincount(block[~first], minlength=n)
        expected = [(lam + 1 + j, int(f[j]), int(s[j]), int(f[j] - s[j])) for j in range(n)]
        expect(result == expected, f"block_rows differ from reference counts for k={k}")


class CensusMC(Workload):
    """Census, Monte Carlo and threshold certificate on the CLI default cache."""

    name = "census-mc"
    ceiling = 4_000_000  # the CLI's default ceiling
    CENSUS_K = 100_000
    SMALL_SIMS, SMALL_TRIALS, SMALL_K = 6, 2_000, (3, 50)
    BIG_K, BIG_TRIALS = 1_009, 1_000
    Z_LIMIT = 3.0

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.exact: dict[tuple[int, int], float] = {}
        self.pooled = [0.0, 0.0, 0.0]  # observed failures, expected, variance

    def operations(self, rng):
        def seed():
            return int(rng.integers(0, 2**31))

        ops = [Op("census", {"k_max": self.CENSUS_K}), Op("threshold", {})]
        for k in int_stratified(rng, self.SMALL_SIMS, *self.SMALL_K):
            ops.append(Op("simulate", {"k": k, "c": 1.0, "trials": self.SMALL_TRIALS,
                                       "seed": seed()}))
        for c in (0.5, 2.0):
            ops.append(Op("simulate", {"k": self.BIG_K, "c": c, "trials": self.BIG_TRIALS,
                                       "seed": seed()}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def _run_census(self, k_max):
        return classify.classical_census(self.cache, k_max)

    def _check_census(self, result, k_max):
        expect(result == CENSUS, f"census {result} != {CENSUS}")

    def _run_threshold(self):
        c0, cert = bounds.effective_threshold(bounds.REFERENCE_CONFIG)
        return c0, [row["positive"] for row in cert["tail_samples"]]

    def _check_threshold(self, result):
        c0, tails = result
        expect(c0 == REFERENCE_C0, f"c0 {c0} != {REFERENCE_C0}")
        expect(len(tails) == 100 and all(tails), "a threshold tail sample is not positive")

    def _run_simulate(self, k, c, trials, seed):
        res = coverage.simulate_coverage(coverage.SimConfig(k, c, trials, seed))
        return res.phi, res.draws, res.empirical

    def _check_simulate(self, result, k, c, trials, seed):
        phi, draws, empirical = result
        if k == self.BIG_K:
            if c < 1:
                expect(empirical >= 0.9, f"k={k}, C={c}: failure rate {empirical} < 0.9")
            else:
                expect(empirical <= 0.1, f"k={k}, C={c}: failure rate {empirical} > 0.1")
            return
        key = (phi, draws)
        if key not in self.exact:
            self.exact[key] = coverage.exact_failure_probability(phi, draws)
        p = self.exact[key]
        self.pooled[0] += empirical * trials
        self.pooled[1] += p * trials
        self.pooled[2] += p * (1 - p) * trials

    def finish(self):
        observed, expected, variance = self.pooled
        if variance == 0:
            return {}
        z = (observed - expected) / math.sqrt(variance)
        expect(abs(z) <= self.Z_LIMIT,
               f"small-k Monte Carlo is {z:.2f} sigma from the exact probability")
        return {"small_k_mc_z": z}


class CliSession(Workload):
    """Sequential pstar CLI calls against one cache file built to 1e8."""

    name = "cli-session"
    ceiling = 100_000_000
    in_process = False

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.cache_file = workdir / "cli-cache.bin"
        self.spans_file = workdir / "cli-spans.npz"
        self.env = {k: v for k, v in os.environ.items() if k != "PSTAR_CACHE"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.file_top = None

    def setup(self):
        super().setup()
        self.cache.save(self.cache_file)
        # a v1 file stores primes only, so it reloads with the largest prime
        # as its ceiling
        self.file_top = int(self.cache.primes_in(self.ceiling - 1_000, self.ceiling)[-1])

    def file_bytes(self):
        return self.cache_file.stat().st_size

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def operations(self, rng):
        top, ceiling = self.file_top, self.ceiling

        def one(lo, hi):
            return log_ints(rng, 1, lo, hi)[0]

        def interval(k_hi, w_lo, w_hi, beta=None, limit=top):
            k, width = one(2, k_hi), one(w_lo, w_hi)
            if beta is None:
                beta = int(rng.integers(width, top - k))
            elif beta == "edge":
                beta = edge_beta(limit, k)
            return {"k": k, "alpha": beta - width + 1, "beta": beta}

        def counts(args, *flags):
            return ["counts", "--k", str(args["k"]), "--alpha", str(args["alpha"]),
                    "--beta", str(args["beta"]), *flags]

        ops = []
        for kind, flag in (("verify-classical", "--classical"), ("verify-block", "--block")):
            k = int(rng.integers(2, 2_001))
            ops.append(Op(kind, {"k": k}, ["verify", "--k", str(k), flag]))
        k = int(rng.integers(2, 201))
        alpha = int(rng.integers(1, 101))
        beta = alpha + one(1e3, 1e6)
        iota = int(rng.integers(0, 4))
        ops.append(Op("verify-general", {"k": k, "alpha": alpha, "beta": beta, "iota": iota},
                      ["verify", "--k", str(k), "--alpha", str(alpha), "--beta", str(beta),
                       "--iota", str(iota)]))
        max_k = int(rng.integers(20, 61))
        ops.append(Op("search", {"max_k": max_k}, ["search", "--max-k", str(max_k)]))
        args = interval(10_000, 1e3, 1e7)
        ops.append(Op("counts-check", args, counts(args, "--check")))
        k = one(100, 10_000)
        blocks_n = one(10, 2_000)
        alpha = int(rng.integers(1, top - (blocks_n + 2) * k))
        args = {"k": k, "alpha": alpha, "beta": alpha + blocks_n * k}
        ops.append(Op("counts-rows", args, counts(args, "--per-block")))
        args = interval(10_000, 1e3, 1e7, beta="edge")  # last block of the file's ceiling
        ops.append(Op("counts", args, counts(args)))
        lam = int(rng.integers(0, 4))
        k_lo = analytic.DUSART_MIN_K if lam == 0 else 1e3
        x = float(log_stratified(rng, 1, k_lo, 1e18)[0])
        ops.append(Op("bound", {"x": x, "lam": lam},
                      ["bound", "--k", repr(x), "--lambda", str(lam)]))
        ops.append(Op("c0", {}, ["c0", "--lambda", "0"]))
        k, c = int(rng.integers(3, 61)), round(float(rng.uniform(0.5, 2.0)), 3)
        trials, seed = int(rng.integers(200, 501)), int(rng.integers(0, 2**31))
        ops.append(Op("simulate", {"k": k, "c": c, "trials": trials, "seed": seed},
                      ["simulate", "--k", str(k), "-C", repr(c), "--trials", str(trials),
                       "--seed", str(seed)]))
        kind = ("nat", "gaussian")[int(rng.integers(0, 2))]
        x = float(round(log_stratified(rng, 1, 1e3, 1e7)[0]))
        k_norm, alpha = int(rng.integers(2, 101)), int(rng.integers(1, 101))
        ops.append(Op("semigroup", {"kind": kind, "x": x, "k_norm": k_norm, "alpha": alpha},
                      ["semigroup", "--semigroup", kind, "--x", repr(x),
                       "--k-norm", str(k_norm), "--alpha", str(alpha)]))
        # --limit equal to the build ceiling takes the prime-gap bridge and a
        # from_primes rebuild, because the file reloads below its ceiling
        k = int(rng.integers(2, 2_001))
        ops.append(Op("verify-classical", {"k": k},
                      ["verify", "--k", str(k), "--classical", "--limit", str(ceiling)]))
        args = interval(1_000_000, 1e3, 1e7, beta="edge", limit=ceiling)
        ops.append(Op("counts", args, counts(args, "--limit", str(ceiling))))
        return [ops[i] for i in rng.permutation(len(ops))]

    def defect_probes(self, rng):
        k, width = log_ints(rng, 1, 2, 10_000)[0], log_ints(rng, 1, 1e3, 1e7)[0]
        probes = [({"k": 1_000_000, "alpha": 1, "beta": self.ceiling},
                   ["--limit", str(self.ceiling)]),
                  ({"k": k, "alpha": self.file_top - width + 1, "beta": self.file_top}, [])]
        return [Op("counts-edge", a, ["counts", "--k", str(a["k"]), "--alpha", str(a["alpha"]),
                                      "--beta", str(a["beta"]), *flags])
                for a, flags in probes]

    def execute(self, op, tracer=None):
        argv = [*op.argv, "--cache", str(self.cache_file)]
        if tracer is None:
            cmd = [sys.executable, "-m", "pstar.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.spans_file), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if tracer is not None:
            tracer.absorb(self.spans_file)
            self.spans_file.unlink()
        if proc.returncode in CLI_FAILURE_CODES:
            raise Failed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        if proc.returncode != 0:
            raise CheckError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        expect(bool(lines) and lines[0].get("record") == "manifest"
               and lines[0].get("command") == op.argv[0], "missing or wrong manifest")
        records = lines[1:]
        expect(all(r.pop("record", None) == "result" for r in records), "non-result record")
        return records

    def check(self, op, records):
        cache = self.cache
        kind, a = op.kind, op.args
        if kind == "verify-classical":
            expected = [{"k": a["k"], "p_integer":
                         classify.is_classical_p_integer(cache, a["k"]).is_p_integer}]
        elif kind == "verify-block":
            expected = [{"k": a["k"], "variant": "block",
                         "p_integer": classify.is_block_p_integer(cache, a["k"])}]
        elif kind == "verify-general":
            v = classify.is_pstar(cache, classify.PStarParams(
                a["k"], a["alpha"], a["beta"], 1, a["iota"]))
            expected = [{**a, "gamma": 1, "pstar": v.is_pstar,
                         "deficit_classes": list(v.deficit_classes),
                         "total_mismatch": v.total_mismatch}]
        elif kind == "search":
            found = classify.search(cache, range(2, a["max_k"] + 1),
                                    lambda k: classify.classical_params(cache, k))
            expected = [{"k": k, "pstar": v.is_pstar} for k, v in found]
        elif kind in ("counts", "counts-check"):
            decomp = blocks.classify_case(a["k"], a["alpha"], a["beta"])
            first, second = blocks.half_counts_formula(cache, decomp)
            expected = [{**a, "case": decomp.case_label, "first": first,
                         "second": second, "excess": first - second}]
            if kind == "counts-check":
                o1, o2 = blocks.half_counts_direct(cache, a["k"], a["alpha"], a["beta"])
                expect((first, second) == (o1, o2), "formula disagrees with the direct oracle")
                expected[0].update(oracle_first=o1, oracle_second=o2, match=True)
        elif kind == "counts-edge":
            # the formula itself fails here, so the oracle is the reference
            decomp = blocks.classify_case(a["k"], a["alpha"], a["beta"])
            first, second = blocks.half_counts_direct(cache, a["k"], a["alpha"], a["beta"])
            expected = [{**a, "case": decomp.case_label, "first": first,
                         "second": second, "excess": first - second}]
        elif kind == "counts-rows":
            decomp = blocks.classify_case(a["k"], a["alpha"], a["beta"])
            expected = [dict(case=decomp.case_label, **row)
                        for row in blocks.block_rows(cache, decomp)]
        elif kind == "bound":
            report = bounds.final_inequality(a["x"], bounds.BoundConfig(lam=a["lam"]))
            expected = [report.to_json()]
        elif kind == "c0":
            expect(len(records) == 1, "c0 emitted more than one record")
            cert = records[0]["certificate"]
            expect(records[0]["first_positive"] == REFERENCE_C0,
                   f"c0 {records[0]['first_positive']} != {REFERENCE_C0}")
            expect(len(cert["tail_samples"]) == 100
                   and all(row["positive"] for row in cert["tail_samples"]),
                   "a threshold tail sample is not positive")
            return
        elif kind == "simulate":
            res = coverage.simulate_coverage(coverage.SimConfig(
                a["k"], a["c"], a["trials"], a["seed"]))
            expected = [res.to_json()]
        elif kind == "semigroup":
            cls = (semigroup_mod.NaturalSemigroup if a["kind"] == "nat"
                   else semigroup_mod.GaussianSemigroup)
            inst = cls(cache)
            first, second = semigroup_mod.half_norm_counts(inst, a["k_norm"], a["alpha"], a["x"])
            expected = [{"instance": inst.name, "x": a["x"],
                         "prime_norms": semigroup_mod.prime_norm_count(inst, a["x"]),
                         "elements": inst.count_elements(a["x"]),
                         "k_norm": a["k_norm"], "alpha": a["alpha"], "first": first,
                         "second": second, "excess": first - second}]
        else:
            raise CheckError(f"no check for {kind}")
        expect(json.loads(json.dumps(expected)) == records,
               f"{kind} records differ from the library's answer")


WORKLOADS = {cls.name: cls for cls in (CliSession, RankScan, CensusMC)}

"""pstar benchmark: run one workload, check its answers, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): ``cli-session``,
``rank-scan`` and ``census-mc``; ``--workload all`` runs the three in turn.
The load is a closed loop from this single process: one operation at a
time, the next one starting when the previous one has returned, no threads.
A run builds the workload's cache several times (``setup_s`` is the median),
then runs whole passes of seeded operations while at least half of another
pass fits in ``--seconds`` of timed work.  Answers are checked after each pass,
outside the timed region.  ``wall_s`` is the median pass time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every pass
twice, untraced and with spans installed around pstar's public functions
(``spans.py``), and reports the per-layer metrics per traced pass plus the
tracing overhead.  The last line of stdout is the result object; the line
before it is the run record (provenance, every end-to-end figure including
those not in BENCHMARK.json, failing inputs, check results, and the
known-defect probes: inputs that fail at the current program, run once after
the timed passes and not counted in the result's ``failed``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 50, 3.0
IMPORT_REPS = 5
PROBE_STREAM = 2**32  # rng stream of the defect probes, apart from the passes' 0, 1, ...

# per-layer span metrics, reported per traced pass
LAYER_SPANS = {
    "primes.load": ("s",),
    "primes.from_primes": ("calls", "s"),
    "primes.pi": ("calls", "s"),
    "primes.nth_prime": ("calls", "s"),
    "primes.theta": ("calls", "s"),
    "primes.profile": ("calls", "s"),
    "primes.primes_in": ("calls", "s"),
    "classify.search": ("s",),
    "classify.is_pstar": ("calls", "s"),
    "classify.classical_census": ("s",),
    "blocks.half_counts_formula": ("calls", "s"),
    "blocks.boundary_terms": ("s",),
    "blocks.block_rows": ("s",),
    "blocks.half_counts_direct": ("s",),
    "coverage.simulate_coverage": ("s",),
    "bounds.effective_threshold": ("s",),
    "bounds.final_inequality": ("calls", "s"),
    "analytic.epsilon": ("calls", "s"),
    "precision.strictly_less": ("calls",),
    "precision.extended": ("calls",),
    "semigroup.prime_norms_up_to": ("s",),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, workload, why: str) -> dict:
    import scipy

    return {
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "pstar"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cache_ceiling": workload.ceiling,
        "why": why,
    }


def run_setups(workload) -> list[float]:
    times: list[float] = []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    return times


def run_pass(workload, ops, tracer=None) -> tuple[float, list]:
    """Run ops in order; returns (wall seconds, [(outcome, value, latency)])."""
    from workloads import Failed

    if tracer is not None and workload.in_process:
        tracer.install()
    results = []
    try:
        first = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                outcome, value = "ok", workload.execute(op, tracer)
            except Failed as exc:
                outcome, value = "failed", str(exc)
            except Exception as exc:  # a crash inside pstar is a wrong answer
                outcome, value = "wrong", f"{type(exc).__name__}: {exc}"
            results.append((outcome, value, perf_counter() - t0))
        wall = perf_counter() - first
    finally:
        if tracer is not None and workload.in_process:
            tracer.uninstall()
    return wall, results


class Tally:
    """Outcomes of all passes of one kind (untraced or traced)."""

    def __init__(self):
        self.walls: list[float] = []
        self.rates: list[float] = []  # answered operations per second, per pass
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = self.failed = 0
        self.failing: list[dict] = []
        self.wrong: list[dict] = []

    def add(self, workload, ops, wall, results, check=True):
        from workloads import CheckError

        self.walls.append(wall)
        self.rates.append(sum(r[0] != "failed" for r in results) / wall)
        for op, (outcome, value, latency) in zip(ops, results):
            self.attempted += 1
            if outcome == "failed":
                self.failed += 1
                self.failing.append({**op.describe(), "error": value})
                latency = math.inf  # a failed operation misses any latency limit
            elif outcome == "wrong":
                self.wrong.append({**op.describe(), "error": value})
            elif check:
                try:
                    workload.check(op, value)
                except CheckError as exc:
                    self.wrong.append({**op.describe(), "error": str(exc)})
            self.latencies.append(latency)
            self.by_kind.setdefault(op.kind, []).append(latency)


def measure(workload, seed: int, seconds: float, tracer=None):
    """Whole passes while at least half of another typical pass fits in
    ``seconds`` of timed work.  With a tracer each pass runs untraced and
    traced, alternating which goes first."""
    plain, traced, overheads, costs = Tally(), Tally(), [], []
    n = 0
    while not costs or sum(costs) + statistics.median(costs) / 2 <= seconds:
        ops = workload.operations(np.random.default_rng([seed, n]))
        if tracer is None:
            wall, results = run_pass(workload, ops)
            plain.add(workload, ops, wall, results)
            costs.append(wall)
        else:
            if n % 2 == 0:
                wall, results = run_pass(workload, ops)
                t_wall, t_results = run_pass(workload, ops, tracer)
            else:
                t_wall, t_results = run_pass(workload, ops, tracer)
                wall, results = run_pass(workload, ops)
            plain.add(workload, ops, wall, results)
            traced.add(workload, ops, t_wall, t_results, check=False)
            for op, a, b in zip(ops, results, t_results):
                if a[:2] != b[:2]:
                    traced.wrong.append({**op.describe(), "error": "traced result differs"})
            overheads.append(t_wall - wall)
            costs.append(wall + t_wall)
        n += 1
    return plain, traced, overheads


def end_to_end(workload, setups, tally) -> tuple[dict, dict]:
    """BENCHMARK.json's end-to-end metrics, and the other figures the run
    record carries (those that can read 0 or need 100 operations)."""
    p50 = percentile(tally.latencies, 0.5)
    if math.isinf(p50):
        raise SystemExit("perfbench: more than half of the operations failed")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(tally.walls), "s"),
        "ops_per_s": (statistics.median(tally.rates), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    extra = {"failed_frac": (tally.failed / tally.attempted, "ratio")}
    if len(tally.latencies) >= 100:
        extra["latency_p90_ms"] = (1e3 * percentile(tally.latencies, 0.9), "ms")
    return metrics, extra


def probe_defects(workload, seed: int) -> dict:
    """Run the workload's known-defect inputs once; a probe that no longer
    fails must give the right answer."""
    from workloads import CheckError

    probes = workload.defect_probes(np.random.default_rng([seed, PROBE_STREAM]))
    _, results = run_pass(workload, probes)
    failing, wrong = [], []
    for op, (outcome, value, _) in zip(probes, results):
        if outcome == "failed":
            failing.append({**op.describe(), "error": value})
        elif outcome == "wrong":
            wrong.append({**op.describe(), "error": value})
        else:
            try:
                workload.check(op, value)
            except CheckError as exc:
                wrong.append({**op.describe(), "error": str(exc)})
    return {"attempted": len(probes), "failed": len(failing),
            "failing_inputs": failing, "wrong_answers": wrong}


def import_seconds() -> float:
    """Fresh-interpreter ``import pstar.cli`` minus bare interpreter start-up."""
    env = {k: v for k, v in os.environ.items() if k != "PSTAR_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for code, out in (("pass", bare), ("import pstar.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           timeout=60)
            out.append(perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def per_layer(workload, setup_tracer, tracer, traced, overheads, plain) -> dict:
    n = len(traced.walls)
    spans = tracer.summary()
    setup_spans = setup_tracer.summary()

    def get(name, field, source=spans):
        return source.get(name, {}).get(field, 0)

    m = {
        "cli.import_s": (import_seconds(), "s"),
        "cli.main.self_s": (get("cli.main", "self_s") / n, "s/pass"),
        "primes.build.s": (get("primes.build", "s", setup_spans), "s"),
        "primes.save.s": (get("primes.save", "s", setup_spans), "s"),
        "primes.file.bytes": (workload.file_bytes(), "bytes"),
    }
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            unit = "calls/pass" if field == "calls" else "s/pass"
            m[f"{name}.{field}"] = (get(name, field) / n, unit)
    counters = tracer.counters
    walks = tracer.count_under("classify.is_classical_p_integer", "classify.classical_census")
    moduli = counters["classify.census.moduli"]
    sim_s = get("coverage.simulate_coverage", "s")
    m.update({
        "primes.primes_in.primes": (counters["primes.primes_in.primes"] / n, "primes/pass"),
        "classify.census.exact_walks": (walks / n, "walks/pass"),
        "classify.census.exact_walk_frac": (walks / moduli if moduli else 0.0, "ratio"),
        "coverage.trials": (counters["coverage.trials"] / n, "trials/pass"),
        "coverage.draws": (counters["coverage.draws"] / n, "draws/pass"),
        "coverage.trials_per_s": (counters["coverage.trials"] / sim_s if sim_s else 0.0, "1/s"),
        "precision.min_rel_margin": (
            tracer.min_rel_margin if math.isfinite(tracer.min_rel_margin) else 0.0, "ratio"),
        "trace.overhead_s": (statistics.median(overheads), "s/pass"),
        "trace.overhead_frac": (
            statistics.median(overheads) / statistics.median(plain.walls), "ratio"),
    })
    return m


def run_all(args, names) -> int:
    """Each workload in its own process (so peak memory stays per workload);
    their lines are passed through, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pstar" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a pstar checkout (src/pstar and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS, CheckError

    spec = json.loads(spec_path.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload == "all":
        return run_all(args, list(why))
    if args.workload not in WORKLOADS or args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(why)}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so running CLI children are killed and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir)
        setups = run_setups(workload)
        record = {"record": "run", "workload": args.workload, "trace": args.trace,
                  "provenance": provenance(args.seed, workload, why[args.workload]),
                  "setup_runs": len(setups)}
        if args.trace:
            setup_tracer = Tracer()
            setup_tracer.install()
            try:
                workload.setup()
            finally:
                setup_tracer.uninstall()
            tracer = Tracer()
            plain, traced, overheads = measure(workload, args.seed, args.seconds, tracer)
            tracer.dump(WORK / f"trace-{args.workload}.npz")
            metrics = per_layer(workload, setup_tracer, tracer, traced, overheads, plain)
            record["notes"] = {"coverage.draws": "computed as trials x draws per trial, "
                                                 "not counted while drawing"}
            wrong = plain.wrong + traced.wrong
        else:
            plain, _, _ = measure(workload, args.seed, args.seconds)
            metrics, extra = end_to_end(workload, setups, plain)
            record["end_to_end"] = {k: {"value": v, "unit": u}
                                    for k, (v, u) in {**metrics, **extra}.items()}
            wrong = plain.wrong
        try:
            record["run_checks"] = workload.finish()
        except CheckError as exc:
            wrong.append({"kind": "run", "error": str(exc)})
        record["known_defects"] = probe_defects(workload, args.seed)
        wrong = wrong + record["known_defects"]["wrong_answers"]
        record.update({
            "passes": len(plain.walls),
            "pass_walls_s": plain.walls,
            "attempted": plain.attempted,
            "failed": plain.failed,
            "failing_inputs": plain.failing,
            "wrong_answers": wrong,
            # null where more than half of that kind failed
            "per_kind_p50_ms": {kind: _finite(1e3 * percentile(lat, 0.5))
                                for kind, lat in sorted(plain.by_kind.items())},
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": not wrong,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: batch runs with reproducible, self-described output.

Every invocation emits a run manifest first (command, parameters, tool
version, cache ceiling, timestamp, seed), then one record per result.  With
``--format json`` (default) the output is JSON-lines: the manifest line has
``"record": "manifest"``, results have ``"record": "result"``.  With
``--format csv`` the manifest becomes ``#``-prefixed comment lines above the
header.  Result records are deterministic given flags, seed, and cache file;
the manifest timestamp is provenance only and deliberately excluded from
that guarantee.

Exit codes are fixed for scripting: 0 success, 2 domain error (bad
mathematical input, an unreadable, corrupt or version-1 cache file, or a
threshold search that exhausts its range), 64 usage error (unparseable
flags), 69 resource error (the prime cache cannot cover the request).

The prime cache is selected with ``--cache PATH`` (or the PSTAR_CACHE
environment variable) and built on demand up to ``--limit``.  A cache file
records the ceiling it was built to; one that covers the requested ceiling
is reused as-is, a smaller one is rebuilt and replaced atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from . import blocks, bounds, classify, coverage
from . import semigroup as semigroup_mod
from .bounds import BoundConfig
from .classify import PStarParams
from .coverage import SimConfig
from .errors import (
    CacheFormatError,
    DomainError,
    SieveBudgetError,
    ThresholdNotFoundError,
)
from .primes import PrimeCache, build_cache, load_cache

__all__ = ["main"]

EX_OK = 0
EX_DOMAIN = 2
EX_USAGE = 64
EX_RESOURCE = 69

CACHE_ENV = "PSTAR_CACHE"
DEFAULT_LIMIT = 4_000_000


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    tool_version: str
    cache_limit: int | None
    timestamp: str
    seed: int | None

    def to_json(self) -> dict:
        return {
            "record": "manifest",
            "command": self.command,
            "parameters": self.parameters,
            "tool_version": self.tool_version,
            "cache_limit": self.cache_limit,
            "timestamp": self.timestamp,
            "seed": self.seed,
        }


def _manifest(args, cache_limit: int | None) -> RunManifest:
    skip = {"func", "output", "command"}
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }
    return RunManifest(
        command=args.command,
        parameters=params,
        tool_version=__version__,
        cache_limit=cache_limit,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        seed=getattr(args, "seed", None),
    )


def _resolve_cache(args, min_limit: int = 2) -> PrimeCache:
    limit = max(args.limit if args.limit else DEFAULT_LIMIT, min_limit, 1000)
    path = args.cache or os.environ.get(CACHE_ENV)
    if path and os.path.exists(path):
        cache = load_cache(path)
        if cache.limit >= limit:
            return cache
    cache = build_cache(limit)
    if path:
        cache.save(path)
    return cache


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _emit(args, manifest: RunManifest, records: list[dict]) -> None:
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "json":
            out.write(json.dumps(manifest.to_json(), sort_keys=True) + "\n")
            for record in records:
                out.write(
                    json.dumps({"record": "result", **record}, sort_keys=True)
                    + "\n"
                )
        else:
            for key, value in sorted(manifest.to_json().items()):
                if key == "record":
                    continue
                out.write(f"# {key}: {json.dumps(value, sort_keys=True)}\n")
            rows = [_flatten(record) for record in records]
            columns: list[str] = []
            for row in rows:
                for column in row:
                    if column not in columns:
                        columns.append(column)
            writer = csv.DictWriter(out, fieldnames=columns, restval="")
            writer.writeheader()
            writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> tuple[list[dict], int | None]:
    if args.k < 2:
        raise DomainError(f"k must be >= 2, got {args.k}")
    if args.classical or args.block:
        cache = _resolve_cache(args)
        if args.classical:
            check = classify.is_classical_p_integer(cache, args.k)
            return [{"k": args.k, "p_integer": check.is_p_integer}], cache.limit
        return (
            [{"k": args.k, "p_integer": classify.is_block_p_integer(cache, args.k),
              "variant": "block"}],
            cache.limit,
        )
    if args.alpha is None or args.beta is None:
        raise DomainError("general verification needs --alpha and --beta")
    cache = _resolve_cache(args, min_limit=args.beta)
    params = PStarParams(args.k, args.alpha, args.beta, args.gamma, args.iota)
    verdict = classify.is_pstar(cache, params)
    return (
        [{
            "k": args.k,
            "alpha": args.alpha,
            "beta": args.beta,
            "gamma": args.gamma,
            "iota": args.iota,
            "pstar": verdict.is_pstar,
            "deficit_classes": list(verdict.deficit_classes),
            "total_mismatch": verdict.total_mismatch,
        }],
        cache.limit,
    )


def cmd_search(args) -> tuple[list[dict], int | None]:
    if args.max_k < 2:
        raise DomainError(f"--max-k must be >= 2, got {args.max_k}")
    cache = _resolve_cache(args)
    if args.classical:
        hits = classify.classical_census(cache, args.max_k)
        return [{"k": k, "p_integer": True} for k in hits], cache.limit
    results = classify.search(
        cache, range(2, args.max_k + 1),
        lambda k: classify.classical_params(cache, k),
    )
    return (
        [{"k": k, "pstar": verdict.is_pstar} for k, verdict in results],
        cache.limit,
    )


def cmd_counts(args) -> tuple[list[dict], int | None]:
    cache = _resolve_cache(args, min_limit=args.beta)
    decomp = blocks.classify_case(args.k, args.alpha, args.beta)
    if args.per_block:
        rows = blocks.block_rows(cache, decomp)
        return [dict(case=decomp.case_label, **row) for row in rows], cache.limit
    first, second = blocks.half_counts_formula(cache, decomp)
    record = {
        "k": args.k,
        "alpha": args.alpha,
        "beta": args.beta,
        "case": decomp.case_label,
        "first": first,
        "second": second,
        "excess": first - second,
    }
    if args.check:
        o_first, o_second = blocks.half_counts_direct(
            cache, args.k, args.alpha, args.beta
        )
        record["oracle_first"] = o_first
        record["oracle_second"] = o_second
        record["match"] = (first, second) == (o_first, o_second)
    return [record], cache.limit


def _bound_config(args) -> BoundConfig:
    return BoundConfig(
        lam=args.lam, d1=args.d1, d2=args.d2, d3=args.d3,
        c1=args.c1, c2=args.c2, c3=args.c3,
    )


def cmd_bound(args) -> tuple[list[dict], int | None]:
    cfg = _bound_config(args)
    if args.primitives:
        report = bounds.final_inequality_from_primitives(args.k, cfg)
    else:
        report = bounds.final_inequality(
            args.k, cfg,
            origin_normalized=args.normalized_origin,
            checked=not args.unchecked,
        )
    return [report.to_json()], None


def cmd_c0(args) -> tuple[list[dict], int | None]:
    cfg = _bound_config(args)
    threshold, certificate = bounds.effective_threshold(
        cfg, k_max=args.k_max, grid_ratio=args.ratio,
        tail_samples=args.tails, origin_normalized=args.normalized_origin,
    )
    return [{"first_positive": threshold, "certificate": certificate}], None


def cmd_simulate(args) -> tuple[list[dict], int | None]:
    cfg = SimConfig(
        k=args.k, coverage_exponent=args.exponent, trials=args.trials,
        seed=args.seed, mode=args.mode,
    )
    cache = None
    if args.mode == "real-primes":
        cache = _resolve_cache(args)
    result = coverage.simulate_coverage(cfg, cache)
    return [result.to_json()], cache.limit if cache else None


def cmd_semigroup(args) -> tuple[list[dict], int | None]:
    cache = _resolve_cache(args, min_limit=math.ceil(args.x) + 1)
    if args.semigroup == "nat":
        instance = semigroup_mod.NaturalSemigroup(cache)
    else:
        instance = semigroup_mod.GaussianSemigroup(cache)
    if args.norms:
        norms = instance.prime_norms_up_to(args.x)
        return (
            [{"norm": int(n)} for n in norms],
            cache.limit,
        )
    record = {
        "instance": instance.name,
        "x": args.x,
        "prime_norms": semigroup_mod.prime_norm_count(instance, args.x),
        "elements": instance.count_elements(args.x),
    }
    if args.k_norm is not None:
        first, second = semigroup_mod.half_norm_counts(
            instance, args.k_norm, args.alpha, args.x
        )
        record.update(k_norm=args.k_norm, alpha=args.alpha,
                      first=first, second=second, excess=first - second)
    return [record], cache.limit


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub) -> None:
    sub.add_argument("--cache", help="prime cache file (default: $PSTAR_CACHE)")
    sub.add_argument("--limit", type=int,
                     help=f"sieve ceiling when building (default {DEFAULT_LIMIT})")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", help="write records here instead of stdout")


def _add_bound_config(sub) -> None:
    sub.add_argument("--lambda", dest="lam", type=int, required=True,
                     help="index of the block containing the interval start")
    for name, default in (("d1", 1.0), ("d2", 1.0), ("d3", 2.0),
                          ("c1", 1.0), ("c2", 1.0), ("c3", 1.0)):
        sub.add_argument(f"--{name}", type=float, default=default)
    sub.add_argument("--normalized-origin", action="store_true",
                     help="divide the origin-block excess by k (exploratory)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pstar",
                     description="half-block prime distribution toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="classify one modulus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--classical", action="store_true",
                   help="first-phi(k)-primes residue-system test")
    p.add_argument("--block", action="store_true",
                   help="variant with primes in [k, beta] only")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--iota", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("search", help="scan moduli for positives")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--classical", action="store_true",
                   help="emit only classical hits (fast census)")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("counts", help="half-block counts over an interval")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="compare against the direct residue oracle")
    p.add_argument("--per-block", action="store_true",
                   help="emit one record per interior block")
    _add_common(p)
    p.set_defaults(func=cmd_counts)

    p = subs.add_parser("bound", help="final inequality at one k")
    p.add_argument("--k", type=float, required=True)
    _add_bound_config(p)
    p.add_argument("--unchecked", action="store_true",
                   help="evaluate the origin excess below its validity floor")
    p.add_argument("--primitives", action="store_true",
                   help="assemble from per-block primitives instead")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("c0", help="effective positivity threshold")
    _add_bound_config(p)
    p.add_argument("--k-max", type=float, default=1e18)
    p.add_argument("--ratio", type=float, default=1.25)
    p.add_argument("--tails", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_c0)

    p = subs.add_parser("simulate", help="residue-coverage Monte Carlo")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exponent", "-C", type=float, required=True,
                   help="coverage exponent C in f = C phi(k) log k")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=coverage.MODES, default="synthetic")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("semigroup", help="norm-indexed prime sources")
    p.add_argument("--semigroup", choices=("nat", "gaussian"),
                   default="gaussian")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--norms", action="store_true",
                   help="emit the full norm multiset (one record per norm)")
    p.add_argument("--k-norm", type=int)
    p.add_argument("--alpha", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_semigroup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        records, cache_limit = args.func(args)
    except (DomainError, CacheFormatError, ThresholdNotFoundError) as exc:
        print(f"pstar {args.command}: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except SieveBudgetError as exc:
        print(f"pstar {args.command}: {exc}", file=sys.stderr)
        return EX_RESOURCE
    _emit(args, _manifest(args, cache_limit), records)
    return EX_OK


if __name__ == "__main__":
    sys.exit(main())

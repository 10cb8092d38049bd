"""In-memory span recorder that times pstar's public functions from outside.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span (name, start, end, parent span) per call.  Module functions are
replaced in every ``pstar`` module namespace that bound them by name, so
``bounds.strictly_less`` and ``pstar.strictly_less`` are traced as well as
``precision.strictly_less``; ``PrimeCache`` and semigroup methods are
replaced on their classes.  Nothing inside ``src/`` is edited.

Spans are kept in flat arrays while the traced code runs and are written
out with :meth:`Tracer.dump` when the traced process ends.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; plain functions are rebound wherever a pstar module holds them.
TARGETS = (
    ("pstar.primes", "PrimeCache.build", "primes.build"),
    ("pstar.primes", "PrimeCache.from_primes", "primes.from_primes"),
    ("pstar.primes", "PrimeCache.load", "primes.load"),
    ("pstar.primes", "PrimeCache.save", "primes.save"),
    ("pstar.primes", "PrimeCache.pi", "primes.pi"),
    ("pstar.primes", "PrimeCache.theta", "primes.theta"),
    ("pstar.primes", "PrimeCache.nth_prime", "primes.nth_prime"),
    ("pstar.primes", "PrimeCache.profile", "primes.profile"),
    ("pstar.primes", "PrimeCache.primes_in", "primes.primes_in"),
    ("pstar.classify", "search", "classify.search"),
    ("pstar.classify", "is_pstar", "classify.is_pstar"),
    ("pstar.classify", "classical_census", "classify.classical_census"),
    ("pstar.classify", "is_classical_p_integer", "classify.is_classical_p_integer"),
    ("pstar.blocks", "half_counts_formula", "blocks.half_counts_formula"),
    ("pstar.blocks", "boundary_terms", "blocks.boundary_terms"),
    ("pstar.blocks", "block_rows", "blocks.block_rows"),
    ("pstar.blocks", "half_counts_direct", "blocks.half_counts_direct"),
    ("pstar.coverage", "simulate_coverage", "coverage.simulate_coverage"),
    ("pstar.bounds", "effective_threshold", "bounds.effective_threshold"),
    ("pstar.bounds", "final_inequality", "bounds.final_inequality"),
    ("pstar.analytic", "epsilon", "analytic.epsilon"),
    ("pstar.precision", "strictly_less", "precision.strictly_less"),
    ("pstar.semigroup", "NaturalSemigroup.prime_norms_up_to", "semigroup.prime_norms_up_to"),
    ("pstar.semigroup", "GaussianSemigroup.prime_norms_up_to", "semigroup.prime_norms_up_to"),
    ("pstar.cli", "main", "cli.main"),
)


class Tracer:
    """Records spans and counters for the pstar calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.min_rel_margin = math.inf
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, result)``
        runs inside the span to update counters."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _strictly_less(self, fn):
        """strictly_less recording the thinnest margin and each extended
        re-decision (as span ``precision.extended``)."""
        from pstar.precision import relative_margin

        def hooked(lhs, rhs, extended=None, *rest, **kwargs):
            margin = abs(relative_margin(lhs, rhs))
            if margin < self.min_rel_margin:
                self.min_rel_margin = margin
            if extended is not None:
                extended = self.wrap("precision.extended", extended)
            return fn(lhs, rhs, extended, *rest, **kwargs)

        return self.wrap("precision.strictly_less", hooked)

    def _counted(self, name: str, fn):
        counters = self.counters
        if name == "primes.primes_in":
            def after(args, kwargs, result):
                counters["primes.primes_in.primes"] += len(result)
        elif name == "classify.classical_census":
            def after(args, kwargs, result):
                k_max = args[1] if len(args) > 1 else kwargs["k_max"]
                counters["classify.census.moduli"] += max(int(k_max) - 1, 0)
        elif name == "coverage.simulate_coverage":
            def after(args, kwargs, result):
                # computed from the configuration, not counted while drawing
                counters["coverage.trials"] += result.config.trials
                counters["coverage.draws"] += result.config.trials * result.draws
        else:
            after = None
        return self.wrap(name, fn, after)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; importing the pstar modules it needs."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                desc = cls.__dict__[meth]
                if isinstance(desc, classmethod):
                    new = classmethod(self._counted(name, desc.__func__))
                else:
                    new = self._counted(name, desc)
                self._patch(cls, meth, new)
                continue
            original = getattr(module, attr)
            if name == "precision.strictly_less":
                new = self._strictly_less(original)
            else:
                new = self._counted(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pstar" or mod_name.startswith("pstar.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, new)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counters": np.array(json.dumps(
                {**self.counters, "precision.min_rel_margin": self.min_rel_margin})),
        }

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())

    def absorb(self, path) -> None:
        """Append the spans and counters another process dumped to ``path``."""
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            remap = np.array([self._id(n) for n in names], dtype=np.int32)
            offset = len(self.start)
            parent = data["parent"]
            self.name_id.extend(remap[data["name_id"]].tolist())
            self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            counters = json.loads(str(data["counters"]))
        self.min_rel_margin = min(self.min_rel_margin,
                                  counters.pop("precision.min_rel_margin"))
        for key, value in counters.items():
            self.counters[key] += value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(ids))
        self_s = dur - child_cover
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def count_under(self, child: str, parent_name: str) -> int:
        """Spans named ``child`` whose direct parent span is ``parent_name``."""
        if child not in self._ids or parent_name not in self._ids:
            return 0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        sel = (ids == self._ids[child]) & (parent >= 0)
        return int(np.count_nonzero(ids[parent[sel]] == self._ids[parent_name]))

"""In-memory span recorder for the traced benchmark run.

Every public function that ``deferauction.cli``, ``deferauction.simulation``
or ``deferauction.dataio`` imports from another package module is replaced, in
the importing module, by a wrapper that records one span per call: its name
(``<defining module>.<function>``), its parent span, and its start and end.
``simulation.account`` is wrapped too, because the selection loops call it
through the module globals. ``finance`` and ``streams`` are left alone: each
costs well under a millisecond per run, so their time stays in their callers'
self time. A name that no longer exists is simply not wrapped.

Spans live in flat ``array`` columns, which the garbage collector does not
track, so recording a million spans adds no collector work of its own. The
collector itself is timed through ``gc.callbacks`` as ``python.gc_*``.
"""
from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

CALLER_MODULES = ("deferauction.cli", "deferauction.simulation", "deferauction.dataio")
UNTRACED_MODULES = ("deferauction.finance", "deferauction.streams")
INTERNAL_NAMES = (("deferauction.simulation", "account"),)
ROOT = "cli.main"


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Counters:
    """Ratios (numerator over denominator) and counts, summed over calls."""

    def __init__(self) -> None:
        self.ratios: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def ratio(self, name: str, num: float, den: float) -> None:
        pair = self.ratios.setdefault(name, [0.0, 0.0])
        pair[0] += num
        pair[1] += den

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def values(self) -> dict[str, float]:
        out = {name: num / den if den else 0.0 for name, (num, den) in self.ratios.items()}
        out.update(self.counts)
        return out


# Count hooks read return values (and, for build_offers, the dataset argument)
# by attribute name. A hook whose names have gone records nothing.
def _hook_load_sites(counters, args, kwargs, result):
    sites, issues = result
    rejected = len({issue.row for issue in issues})
    counters.ratio("dataio.load_sites.kept_ratio", len(sites), len(sites) + rejected)


def _hook_build_offers(counters, args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    mechanism = args[2] if len(args) > 2 else kwargs["mechanism"]
    name = f"simulation.build_offers.kept_ratio.{mechanism.value}"
    counters.ratio(name, len(result), len(dataset))


def _hook_run(prefix):
    def hook(counters, args, kwargs, result):
        counters.ratio(f"{prefix}.funded_ratio", len(result.conserved_year), len(result.offers))
        counters.count(f"{prefix}.lost", len(result.harvested_year))

    return hook


def _hook_write_report(counters, args, kwargs, result):
    counters.count("dataio.write_report.bytes", sum(Path(p).stat().st_size for p in result))


HOOKS = {
    "dataio.load_sites": _hook_load_sites,
    "simulation.build_offers": _hook_build_offers,
    "simulation.run_deferred": _hook_run("simulation.run_deferred"),
    "simulation.run_upfront": _hook_run("simulation.run_upfront"),
    "dataio.write_report": _hook_write_report,
}


class Tracer:
    """Records spans, counters and collector time for one traced CLI call."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = Counters()
        self.gc_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    def wrap(self, fn, name: str):
        """Return `fn` recording a span named `name` per call."""
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        names, parents, starts, ends = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        stack = self.stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap the cross-module names in the modules that import them."""
        targets = []
        for module_name in CALLER_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("deferauction.")
                    and obj.__module__ != module_name
                    and obj.__module__ not in UNTRACED_MODULES
                ):
                    targets.append((module, attr, obj))
        for module_name, attr in INTERNAL_NAMES:
            module = importlib.import_module(module_name)
            obj = getattr(module, attr, None)
            if inspect.isfunction(obj):
                targets.append((module, attr, obj))
        for module, attr, obj in targets:
            setattr(module, attr, self.wrap(obj, f"{_short(obj.__module__)}.{obj.__name__}"))
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    def _columns(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        ends = np.frombuffer(self.span_end, dtype=np.float64)
        return names, parents, starts, ends

    def summary(self) -> dict[str, float]:
        """Per-span-name `.s`, `.self_s` and `.calls`, counters, and collector totals."""
        names, parents, starts, ends = self._columns()
        durations = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        self_time = durations - child_time
        k = len(self.name_ids)
        total = np.bincount(names, weights=durations, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        out: dict[str, float] = {}
        for name, name_id in self.name_ids.items():
            if name == ROOT:
                out["cli.self_s"] = float(own[name_id])
                continue
            out[f"{name}.s"] = float(total[name_id])
            out[f"{name}.self_s"] = float(own[name_id])
            out[f"{name}.calls"] = int(calls[name_id])
        out.update(self.counters.values())
        out["python.gc_s"] = self.gc_s
        for generation, count in enumerate(self.gc_collections):
            out[f"python.gc_gen{generation}"] = count
        return out

    def dump(self, path: Path) -> None:
        """Write every span (name id, parent index, start, end) and the name table to an .npz."""
        names, parents, starts, ends = self._columns()
        table = np.array(list(self.name_ids))
        np.savez(path, name=names, parent=parents, start=starts, end=ends, names=table)

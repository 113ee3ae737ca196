"""Span recording around the public entry points of each subexp layer.

The traced run patches every entry point listed in ``ENTRY_POINTS`` with a
wrapper, in its defining module and in every ``subexp`` module that
imported it (so ``subexp.lln.eval_maximal`` and
``subexp.axioms.sublinear_expect`` are caught too).  Nothing inside
``src/`` changes; the patch is undone after every traced op, so the
untraced ops of the same run execute the program as shipped.

A ``Tracer`` works in one of two modes:

* counting: one untimed op per input, recording work counts computed from
  each call's arguments and result, scalar-versus-array evaluations of the
  test functions, and the tracemalloc peak of each ``compose_independent``
  call.  Every op of a workload does the same work, so one counted op
  gives exact per-op counts.
* timing: spans (name, layer, start, end, parent, op id) kept in memory
  and written to a file when the run ends.  A layer's self time is its
  spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from subexp import maximal

LAYERS = ("scenarios", "maximal", "joint", "lln", "mle", "envelope", "axioms")


def _atoms(a, _result):
    fam = a.get("family", a.get("measure"))
    measures = fam.measures if hasattr(fam, "measures") else (fam,)
    return {"atoms": sum(len(m.atoms) for m in measures)}


def _grid_nodes(a, _result):
    return {"grid_nodes": len(a["grid"].points(a["d"]))}


def _tensor_cells(a, _result):
    cells = 1
    for m in a["j"].marginals:
        cells *= len(a["grid"].points(m)) if isinstance(m, maximal.MaximalDist) else len(m.support())
    return {"tensor_cells": cells}


def _draws(a, _result):
    cfg = a["cfg"]
    schedule = a.get("n_schedule")
    n_max = max(schedule) if schedule else cfg.n
    policies = a.get("policies") or (a["policy"],)
    adversarial = sum(p.kind == "adversarial" for p in policies)
    return {"draws": cfg.reps * n_max * len(policies), "adversarial_steps": cfg.reps * n_max * adversarial}


def _rows(_a, result):
    return {"rows": len(result)}


def _windows(a, _result):
    return {"windows": a["cfg"].num_windows}


def _cases(_a, result):
    return {"cases": result.cases}


def _oracle_pairs(a, _result):
    g = len({float(x) for x in a["candidate_grid"]})
    return {"oracle_pairs": g * (g + 1) // 2}


# layer -> {public function: work counter or None}.  ``likelihood`` and
# ``interval_distance`` are left out: they are called per element inside
# other entry points of their own layer, where a span each would cost more
# than the work it times.
ENTRY_POINTS = {
    "scenarios": {"expect_linear": _atoms, "sublinear_expect": _atoms, "capacity": _atoms},
    "maximal": {"eval_maximal": _grid_nodes, "convolve_scaled": None, "dirac_family": None},
    "joint": {
        "compose_independent": _tensor_cells,
        "asymmetry_probe": None,
        "point_capacity": None,
        "indicator_approx": None,
    },
    "lln": {"simulate_path": _draws, "empirical_lln": _draws, "rate_check": _draws},
    "mle": {"mle_estimate": None, "solve_minimax_oracle": _oracle_pairs, "unbiasedness_check": None},
    "envelope": {"ingest_csv": _rows, "rolling_local_variance": _windows, "variance_envelope": None},
    "axioms": {"run_axiom_suite": _cases},
    "cli": {"main": None},
}


class Tracer:
    """Records spans (timing mode) or work counts (counting mode) for one run."""

    def __init__(self):
        self.counting = False
        self.spans: list[list] = []  # [name, layer, start, end, parent index, op id]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.peak_alloc_mb = 0.0
        self.counted_ops = 0
        self._stack: list = []  # span indices (timing) or layer names (counting)
        self._op = -1
        self._patches = self._build_patches()

    # -- patching ---------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        modules = [m for name, m in sorted(sys.modules.items()) if name == "subexp" or name.startswith("subexp.")]
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules[f"subexp.{layer}"]
            for name, counter in entries.items():
                orig = getattr(home, name)
                wrapper = self._wrap(layer, name, orig, counter)
                for mod in modules:
                    for attr, val in vars(mod).items():
                        if val is orig:
                            patches.append((mod, attr, orig, wrapper))
        cli = sys.modules["subexp.cli"]
        patches.append((cli, "build_fn", cli.build_fn, self._wrap_build_fn(cli.build_fn)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _wrapper in self._patches:
                setattr(mod, attr, orig)

    def _wrap(self, layer, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.counting:
                return self._counted_call(layer, sig, fn, counter, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self._op])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][3] = time.perf_counter()
                self._stack.pop()

        return traced

    def _counted_call(self, layer, sig, fn, counter, args, kwargs):
        track = layer == "joint" and not tracemalloc.is_tracing()
        self._stack.append(layer)
        if track:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            if track:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                self.peak_alloc_mb = max(self.peak_alloc_mb, peak)
        finally:
            if track:
                tracemalloc.stop()
            self._stack.pop()
        self.counts[layer, "calls"] += 1
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in counter(bound.arguments, result).items():
                self.counts[layer, key] += value
        return result

    def _wrap_build_fn(self, build_fn):
        @functools.wraps(build_fn)
        def traced_build_fn(*args, **kwargs):
            f = build_fn(*args, **kwargs)
            return dataclasses.replace(f, fn=self.fn(f.fn)) if self.counting else f

        return traced_build_fn

    # -- test functions -----------------------------------------------------

    def fn(self, f):
        """``f`` itself, or in counting mode a wrapper that counts whether it
        was evaluated on arrays (vectorised) or one point at a time."""
        if not self.counting:
            return f

        def counted(*xs):
            layer = self._stack[-1] if self._stack else "harness"
            if isinstance(xs[0], np.ndarray) and xs[0].ndim > 0:
                try:
                    out = f(*xs)
                except (TypeError, ValueError):
                    self.counts[layer, "scalar_fallbacks"] += 1
                    raise
                if np.shape(out) == xs[0].shape:
                    self.counts[layer, "array_points"] += xs[0].size
                else:
                    self.counts[layer, "scalar_fallbacks"] += 1
                return out
            self.counts[layer, "scalar_points"] += 1
            return f(*xs)

        return counted

    # -- ops ----------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int, counting: bool):
        """One traced op: a root span in timing mode, or a counted op."""
        self.counting = counting
        self._op = op_id
        if counting:
            self.counted_ops += 1
            try:
                yield self
            finally:
                self.counting = False
            return
        idx = len(self.spans)
        self.spans.append(["op", "op", time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(idx)
        try:
            yield self
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()

    # -- results ------------------------------------------------------------

    def self_ms_per_op(self) -> tuple[dict[str, float], float]:
        """Mean self time per timed op for each layer, and the mean op time."""
        child = [0.0] * len(self.spans)
        for _name, _layer, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        op_time = 0.0
        ops = 0
        for (_name, layer, t0, t1, _parent, _op), c in zip(self.spans, child):
            total[layer] += t1 - t0 - c
            if layer == "op":
                op_time += t1 - t0
                ops += 1
        ops = max(ops, 1)
        return {k: v * 1e3 / ops for k, v in total.items()}, op_time * 1e3 / ops

    def per_op_count(self, layer: str, key: str) -> float:
        return self.counts.get((layer, key), 0.0) / max(self.counted_ops, 1)

    def layer_metrics(self, check_ms: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per op; ``check_ms`` is the mean time the harness
        spent checking one traced op's outputs."""
        self_ms, op_ms = self.self_ms_per_op()
        out: dict[str, tuple[float, str]] = {}

        def rate(count: float, ms: float) -> float:
            return count / (ms / 1e3) if ms > 0 else 0.0

        for layer in LAYERS:
            ms = self_ms.get(layer, 0.0)
            out[f"{layer}.calls"] = (self.per_op_count(layer, "calls"), "count")
            out[f"{layer}.self_ms"] = (ms, "ms")
            out[f"{layer}.share"] = (ms / op_ms if op_ms > 0 else 0.0, "ratio")
        for layer, key, per_s in (
            ("scenarios", "atoms", "atoms_per_s"),
            ("axioms", "cases", "cases_per_s"),
            ("maximal", "grid_nodes", "nodes_per_s"),
            ("joint", "tensor_cells", "cells_per_s"),
            ("lln", "draws", "draws_per_s"),
            ("envelope", "rows", "rows_per_s"),
        ):
            n = self.per_op_count(layer, key)
            out[f"{layer}.{key}"] = (n, "count")
            out[f"{layer}.{per_s}"] = (rate(n, self_ms.get(layer, 0.0)), "1/s")
        array_points = self.per_op_count("maximal", "array_points")
        scalar_points = self.per_op_count("maximal", "scalar_points")
        evaluated = array_points + scalar_points
        out["maximal.scalar_fallbacks"] = (self.per_op_count("maximal", "scalar_fallbacks"), "count")
        out["maximal.vectorised_ratio"] = (array_points / evaluated if evaluated else 0.0, "ratio")
        out["joint.peak_alloc_mb"] = (self.peak_alloc_mb, "MB")
        out["lln.adversarial_steps"] = (self.per_op_count("lln", "adversarial_steps"), "count")
        out["envelope.windows"] = (self.per_op_count("envelope", "windows"), "count")
        out["mle.oracle_pairs"] = (self.per_op_count("mle", "oracle_pairs"), "count")
        out["cli.self_ms"] = (self_ms.get("cli", 0.0), "ms")
        out["harness.self_ms"] = (self_ms.get("op", 0.0) + check_ms, "ms")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, layer, t0, t1, parent, op]) + "\n")

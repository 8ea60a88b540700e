"""Spans and counts recorded at the module boundaries of regen_bernstein.

The traced round replaces module-level names through which one module
calls another (for example ``regen_bernstein.verify.substream``) with a
wrapper that records a span (name, start, end, parent) and updates
counters from the call's arguments and result. Nothing inside the
package changes, so outputs stay byte-identical to an untraced round.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    """A call's argument by position or keyword, as the callee binds it."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_finite_sums(counts, args, kwargs, result):
    counts["kernels.finite_sums.steps"] += np.size(_arg(args, kwargs, 3, "uniforms"))


def _count_mod1_sums(counts, args, kwargs, result):
    counts["kernels.mod1_sums.steps"] += np.size(_arg(args, kwargs, 7, "eps"))


def _count_finite_split(counts, args, kwargs, result):
    counts["kernels.split_path.blocks"] += np.size(_arg(args, kwargs, 6, "level_u"))
    counts["split.states_simulated"] += np.size(_arg(args, kwargs, 5, "state_u"))


def _count_mod1_split(counts, args, kwargs, result):
    eps = np.size(_arg(args, kwargs, 4, "eps"))
    counts["kernels.split_path.blocks"] += eps // 2  # two-step blocks
    counts["split.states_simulated"] += eps


def _count_simulate_split(counts, args, kwargs, result):
    counts["split.states_kept"] += len(result)
    counts["split.states_simulated"] += 1  # the initial state


def _counter(key, index, name, default=None):
    def count(counts, args, kwargs, result):
        counts[key] += int(_arg(args, kwargs, index, name, default))
    return count


# (module, attribute, span name, counter). Each attribute is the name
# the calling module looks up at call time.
BOUNDARIES = (
    ("verify", "substream", "rng.substream", None),
    ("variance", "substream", "rng.substream", None),
    ("_kernels", "backend_choice", "backend.resolve", None),
    ("_kernels", "finite_chain_sums", "kernels.finite_sums", _count_finite_sums),
    ("_kernels", "mod1_chain_sums", "kernels.mod1_sums", _count_mod1_sums),
    ("_kernels", "finite_split_path", "kernels.split_path", _count_finite_split),
    ("_kernels", "mod1_chain_path", "kernels.split_path", _count_mod1_split),
    ("verify", "mc_tail", "verify.mc_tail",
     _counter("verify.mc_tail.replicas", 5, "replicas")),
    ("verify", "_tail_counts", "verify.tail_counts", None),
    ("verify", "two_block_sup_tail", "verify.two_block",
     _counter("verify.two_block.replicas", 4, "replicas")),
    ("verify", "fit_bernstein_params", "verify.fit", None),
    ("verify", "check_pitman", "verify.pitman",
     _counter("verify.pitman.replicas", 2, "replicas", 20000)),
    ("verify", "check_block_structure", "verify.structure", None),
    ("verify", "bound_curves", "verify.bound_curves", None),
    ("verify", "simulate_split", "split.simulate_split", _count_simulate_split),
    ("verify", "psi_norm_empirical", "orlicz.psi_norm", None),
    ("verify", "sigma_mrv_exact", "variance.exact", None),
    ("verify", "sigma_mrv_regenerative", "variance.regenerative", None),
    ("verify", "thm_bi", "bounds.eval", None),
    ("verify", "thm_bi2", "bounds.eval", None),
    ("verify", "thm_sbi", "bounds.eval", None),
    ("cli", "main", "cli.main", None),
    ("cli", "write_json", "cli.write", None),
    ("cli", "write_curves_csv", "cli.write", None),
)

# per-layer metric -> how it is read from the span table: (kind, name).
# The metrics computed from several rows are added by layer_metrics;
# BENCHMARK.json lists every metric with its unit.
LAYER_METRICS = {
    "rng.substream_s": ("total", "rng.substream"),
    "rng.substream.calls": ("calls", "rng.substream"),
    "backend.resolve_s": ("total", "backend.resolve"),
    "backend.resolve.calls": ("calls", "backend.resolve"),
    "kernels.finite_sums_s": ("total", "kernels.finite_sums"),
    "kernels.finite_sums.calls": ("calls", "kernels.finite_sums"),
    "kernels.finite_sums.steps": ("count", "kernels.finite_sums.steps"),
    "kernels.mod1_sums_s": ("total", "kernels.mod1_sums"),
    "kernels.mod1_sums.steps": ("count", "kernels.mod1_sums.steps"),
    "kernels.split_path_s": ("total", "kernels.split_path"),
    "kernels.split_path.calls": ("calls", "kernels.split_path"),
    "kernels.split_path.blocks": ("count", "kernels.split_path.blocks"),
    "verify.mc_tail_s": ("total", "verify.mc_tail"),
    "verify.mc_tail.self_s": ("self", "verify.mc_tail"),
    "verify.mc_tail.replicas": ("count", "verify.mc_tail.replicas"),
    "verify.tail_counts_s": ("total", "verify.tail_counts"),
    "verify.two_block_s": ("total", "verify.two_block"),
    "verify.two_block.replicas": ("count", "verify.two_block.replicas"),
    "verify.fit_s": ("total", "verify.fit"),
    "verify.pitman_s": ("total", "verify.pitman"),
    "verify.pitman.replicas": ("count", "verify.pitman.replicas"),
    "verify.structure_s": ("total", "verify.structure"),
    "verify.bound_curves_s": ("total", "verify.bound_curves"),
    "split.simulate_split_s": ("total", "split.simulate_split"),
    "split.simulate_split.self_s": ("self", "split.simulate_split"),
    "split.simulate_split.calls": ("calls", "split.simulate_split"),
    "split.states_kept": ("count", "split.states_kept"),
    "split.states_simulated": ("count", "split.states_simulated"),
    "orlicz.psi_norm_s": ("total", "orlicz.psi_norm"),
    "orlicz.psi_norm.calls": ("calls", "orlicz.psi_norm"),
    "variance.exact_s": ("total", "variance.exact"),
    "variance.regenerative_s": ("total", "variance.regenerative"),
    "bounds.eval_s": ("total", "bounds.eval"),
    "bounds.eval.calls": ("calls", "bounds.eval"),
    "cli.verify_s": ("self", "cli.main"),
    "cli.write_s": ("total", "cli.write"),
}


class Tracer:
    """Installs the boundary wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def install(self):
        ids = {}
        for module_name, attr, span_name, counter in BOUNDARIES:
            module = importlib.import_module(f"regen_bernstein.{module_name}")
            original = getattr(module, attr)
            if span_name not in ids:
                ids[span_name] = len(self.names)
                self.names.append(span_name)
            wrapper = self._wrap(original, ids[span_name], counter)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, original, name_id, counter):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def table(self) -> dict:
        """Per span name: calls, total time and self time."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0}
               for name in self.names}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[i]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def split_chunks(self) -> int:
        """Kernel calls made directly by simulate_split."""
        split_id = self.names.index("split.simulate_split")
        kernel_id = self.names.index("kernels.split_path")
        return sum(1 for name_id, _, _, parent in self.spans
                   if name_id == kernel_id and parent >= 0
                   and self.spans[parent][0] == split_id)

    def layer_metrics(self, wall_s: float) -> dict:
        """Every per-layer metric except trace.overhead_s, as plain numbers."""
        table = self.table()
        out = {}
        for key, (kind, name) in LAYER_METRICS.items():
            out[key] = (self.counts.get(name, 0) if kind == "count"
                        else table[name][kind])
        kernel_calls = sum(table[k]["calls"] for k in (
            "kernels.finite_sums", "kernels.mod1_sums", "kernels.split_path"))
        runs = table["split.simulate_split"]["calls"]
        out["backend.resolve_per_kernel_call"] = (
            table["backend.resolve"]["calls"] / kernel_calls if kernel_calls
            else 0.0)
        out["split.chunks_per_run"] = self.split_chunks() / runs if runs else 0.0
        out["split.kept_ratio"] = (
            self.counts["split.states_kept"] / self.counts["split.states_simulated"]
            if self.counts["split.states_simulated"] else 0.0)
        out["trace.coverage"] = self.top_level_seconds() / wall_s
        return out

"""Spans around calls into gemsim's modules, recorded from outside the package.

A Tracer replaces module (or class) attributes with wrappers that record one
span per call: name, start, end, parent span and an optional work count.
Names that a module imported by value are patched where they are used
(experiments imports run_gem, metrics imports run_gem, eit imports
cumulative_simpson, ...). Every patched attribute is restored on exit.

Spans live in memory until the run ends. Pool workers are forked processes,
so spans recorded inside them are lost; layer_metrics only sees the calls
made in this process.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


# Unit of every per-layer metric a traced run reports, grouped by the
# end-to-end metric each should move and on which workload; the setup.*,
# load_spec and trace.* entries are filled in by run.py.
LAYER_UNITS = {
    # setup_s, every workload
    "setup.import_s": "s",
    "experiments.load_spec_s": "s",
    # wall_s, every workload (fig4: from find_delta's in-process probe run)
    "solver.run_gem_s": "s",
    "solver.run_gem_calls": "count",
    "solver.cell_steps_per_s": "1/s",
    # wall_s, most on fig4_sweep_slice (3 calls per step)
    "solver.cumsimpson_s": "s",
    "solver.cumsimpson_calls": "count",
    "solver.cumsimpson_us_per_call": "us",
    "solver.cumsimpson_bytes_computed": "bytes",
    "solver.stark_integral_s": "s",
    "solver.stark_integral_calls": "count",
    # wall_s on fig3_contrast, barely on fig2_abrupt
    "solver.self_s": "s",
    # wall_s on fig3_contrast only
    "eit.run_eit_s": "s",
    "eit.cumsimpson_s": "s",
    "eit.self_s": "s",
    # wall_s on fig2_abrupt only
    "kspace.to_kspace_s": "s",
    "kspace.centroid_series_s": "s",
    "kspace.phi_residual_s": "s",
    # wall_s on fig4_sweep_slice
    "metrics.fidelity_s": "s",
    "metrics.fidelity_calls": "count",
    "metrics.fidelity_ms_per_call": "ms",
    "metrics.find_delta_self_s": "s",
    "metrics.efficiency_numeric_s": "s",
    "metrics.sweep_pool_s": "s",
    # wall_s on fig2_abrupt, not on fig4_sweep_slice
    "experiments.artifact_s": "s",
    "experiments.artifact_bytes": "bytes",
    "experiments.artifact_mb_per_s": "MB/s",
    # traced wall time; minus an untraced run's wall_s, the tracing overhead
    "trace.wall_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    work: float = 0.0


def _cells(config, *args, **kwargs) -> float:
    """Grid cells advanced by one run_gem call: nz * (nt - 1)."""
    return float(config.grid.nz * (config.grid.nt - 1))


def _simpson_bytes(f, *args, **kwargs) -> float:
    """Array-size minimum bytes of one cumulative_simpson call: read f, write
    a result of the same shape and dtype. Computed, not measured."""
    return float(2 * f.nbytes)


def patch_targets() -> list:
    """(owner, attribute, span name, work function) for every call the
    layer metrics need, patched where the caller looks the name up."""
    from gemsim import core, eit, experiments, metrics, solver

    return [
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "run_gem", "solver.run_gem", _cells),
        (metrics, "run_gem", "solver.run_gem", _cells),
        (solver, "cumulative_simpson", "solver.cumsimpson", _simpson_bytes),
        (core.StarkProfile, "slope_integral", "solver.stark_integral", None),
        (core.StarkProfile, "offset_integral", "solver.stark_integral", None),
        (experiments, "run_eit", "eit.run_eit", None),
        (eit, "cumulative_simpson", "eit.cumsimpson", _simpson_bytes),
        (experiments, "to_kspace", "kspace.to_kspace", None),
        (experiments, "centroid_series", "kspace.centroid_series", None),
        (experiments, "phi_residual", "kspace.phi_residual", None),
        (experiments, "fidelity", "metrics.fidelity", None),
        (metrics, "fidelity", "metrics.fidelity", None),
        (experiments, "efficiency_numeric", "metrics.efficiency_numeric", None),
        (metrics, "efficiency_numeric", "metrics.efficiency_numeric", None),
        (experiments, "mode_fidelity_sweep", "metrics.mode_fidelity_sweep", None),
        (experiments, "find_delta", "metrics.find_delta", None),
        (metrics, "find_delta", "metrics.find_delta", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        work(*args, **kwargs) if work else 0.0)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, targets: list):
        """Install wrappers for `targets`; restore the original attributes
        (the objects found in the owner's __dict__) on exit."""
        saved = []
        try:
            for owner, attr, name, work in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced workload execution.

    Layers that did not run report 0. artifact_bytes is the exact sum of
    the manifests' files[].bytes and is passed in by the caller.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0.0) + s.work

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    gem_s = total.get("solver.run_gem", 0.0)
    simpson_s = total.get("solver.cumsimpson", 0.0)
    simpson_n = calls.get("solver.cumsimpson", 0)
    fid_s = total.get("metrics.fidelity", 0.0)
    fid_n = calls.get("metrics.fidelity", 0)
    artifact_s = own.get("experiments.run_experiment", 0.0)
    return {
        "solver.run_gem_s": gem_s,
        "solver.run_gem_calls": calls.get("solver.run_gem", 0),
        "solver.cell_steps_per_s": ratio(work.get("solver.run_gem", 0.0), gem_s),
        "solver.cumsimpson_s": simpson_s,
        "solver.cumsimpson_calls": simpson_n,
        "solver.cumsimpson_us_per_call": 1e6 * ratio(simpson_s, simpson_n),
        "solver.cumsimpson_bytes_computed": work.get("solver.cumsimpson", 0.0),
        "solver.stark_integral_s": total.get("solver.stark_integral", 0.0),
        "solver.stark_integral_calls": calls.get("solver.stark_integral", 0),
        "solver.self_s": own.get("solver.run_gem", 0.0),
        "eit.run_eit_s": total.get("eit.run_eit", 0.0),
        "eit.cumsimpson_s": total.get("eit.cumsimpson", 0.0),
        "eit.self_s": own.get("eit.run_eit", 0.0),
        "kspace.to_kspace_s": total.get("kspace.to_kspace", 0.0),
        "kspace.centroid_series_s": total.get("kspace.centroid_series", 0.0),
        "kspace.phi_residual_s": total.get("kspace.phi_residual", 0.0),
        "metrics.fidelity_s": fid_s,
        "metrics.fidelity_calls": fid_n,
        "metrics.fidelity_ms_per_call": 1e3 * ratio(fid_s, fid_n),
        "metrics.find_delta_self_s": own.get("metrics.find_delta", 0.0),
        "metrics.efficiency_numeric_s": total.get("metrics.efficiency_numeric", 0.0),
        "metrics.sweep_pool_s": own.get("metrics.mode_fidelity_sweep", 0.0),
        "experiments.artifact_s": artifact_s,
        "experiments.artifact_bytes": artifact_bytes,
        "experiments.artifact_mb_per_s": ratio(artifact_bytes / 1e6, artifact_s),
    }

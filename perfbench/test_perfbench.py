"""Self-tests of the benchmark: gate, tracer and workload seeding.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from gemsim import GemConfig, Grid, StarkProfile, metrics  # noqa: E402


def _result(name, scalars, checks=(), status="ok"):
    return SimpleNamespace(name=name, scalars=dict(scalars), checks=list(checks),
                           status=status, files=[], manifest_path=None)


def test_gate_accepts_pinned_scalars_and_rejects_a_1e_6_perturbation():
    pins = workloads.load_pins()
    pinned = workloads.pins_for(pins, "fig2_abrupt", 0)
    scalars = {key.split(".", 1)[1]: value for key, value in pinned.items()}
    assert workloads.gate([_result("fig2_abrupt", scalars)], pinned, pins["rel_tol"]) == []
    for key in scalars:
        bumped = dict(scalars, **{key: scalars[key] * (1.0 + 1e-6)})
        failures = workloads.gate([_result("fig2_abrupt", bumped)], pinned, pins["rel_tol"])
        assert len(failures) == 1 and key in failures[0]


def test_gate_rejects_missing_scalars_failed_checks_and_nan():
    pinned = {"x.a": 1.0}
    assert workloads.gate([_result("x", {})], pinned, 1e-9)
    assert workloads.gate([_result("x", {"a": math.nan})], pinned, 1e-9)
    failed = {"name": "sigma_min", "passed": False, "value": 0.5, "expected": 0.8}
    assert workloads.gate([_result("x", {"a": 1.0}, [failed], "failed")], pinned, 1e-9)


def test_pins_cover_every_workload_and_fig4_seeds():
    pins = workloads.load_pins()
    assert set(pins["workloads"]) == set(workloads.WORKLOADS)
    assert "fig4_sweep.min_F_beta_3" in workloads.pins_for(pins, "fig4_sweep_slice", 0)
    other = workloads.pins_for(pins, "fig4_sweep_slice", 7)
    assert set(other) == {"fig4_sweep.delta_beta_3"}


def test_fig4_modes_pair_one_band_edge_with_a_seeded_interior_mode():
    assert workloads.fig4_modes(0) == [-40, 39]
    for seed in range(1, 50):
        edge, interior = workloads.fig4_modes(seed)
        assert edge in (-40, 39) and -40 < interior < 39
        assert workloads.fig4_modes(seed) == [edge, interior]


def _small_config():
    stark = StarkProfile(eta0=4.0, switch_time=15.0)
    grid = Grid(z_min=-1.0, z_max=1.0, nz=128, t_max=40.0, nt=401)
    return GemConfig(g=1.0, linear_density=4.0, gamma=0.0, stark=stark, grid=grid)


def test_tracer_restores_every_patched_attribute():
    targets = tracing.patch_targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            for (owner, attr, _, _), original in zip(targets, before):
                assert vars(owner)[attr] is not original
            raise RuntimeError("body failed")
    for (owner, attr, _, _), original in zip(targets, before):
        assert vars(owner)[attr] is original


def test_self_times_never_exceed_their_span_and_children_fit_the_parent():
    tracer = tracing.Tracer()
    with tracer.patched(tracing.patch_targets()):
        metrics.find_delta(_small_config(), (2.0, 8.0), 0, search_halfwidth=2.0)
    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"metrics.find_delta", "solver.run_gem", "solver.cumsimpson",
            "solver.stark_integral", "metrics.fidelity"} <= names
    own = tracing.self_times(spans)
    for i, (s, self_s) in enumerate(zip(spans, own)):
        assert 0.0 <= self_s <= s.end - s.start
        kids = [c for c in spans if c.parent == i]
        assert all(s.start <= c.start <= c.end <= s.end for c in kids)
    layer = tracing.layer_metrics(spans, artifact_bytes=0)
    assert layer["solver.cumsimpson_calls"] == 3 * (401 - 1)
    assert layer["solver.run_gem_calls"] == 1
    assert layer["solver.self_s"] <= layer["solver.run_gem_s"]


def test_self_times_clip_overlapping_children():
    spans = [
        tracing.Span("p", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("b", 3.0, 12.0, 0),
    ]
    assert tracing.self_times(spans) == [1.0, 3.0, 9.0]


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}

"""Workload inputs, bodies and the correctness gate.

The three workloads follow the source paper's figures and stress different
layers of gemsim:

- fig2_abrupt: the packaged kspace_report preset (4096 x 8001, abrupt
  switch). The only workload for the k-space layer, and the heaviest on
  artifact writing (about 40 MB of full-precision CSV, hashed).
- fig3_contrast: the fig3_gem and fig3_eit presets back to back. Small
  grids where per-step Python work dominates; the only workload for the
  EIT solver.
- fig4_sweep_slice: one beta = 3 slice of the fig4_sweep preset with two
  modes: a delta = "auto" search (thousands of fidelity calls) then both
  modes on a two-worker process pool, at nz = 10240 in the carrier gauge.

The preset workloads are fixed inputs (they are the paper's figures); the
seed only picks the fig4 mode pair.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

WORKLOADS = ("fig2_abrupt", "fig3_contrast", "fig4_sweep_slice")
# The benchmark machine has two cores; the sweep never uses more workers.
SWEEP_WORKERS = 2
FIG4_BETA = 3.0
FIG4_EDGES = (-40, 39)  # band edges of the fig4_sweep 80-mode ladder


def fig4_modes(seed: int) -> list[int]:
    """One band-edge mode plus one interior mode; seed 0 is the pinned pair.

    Every mode costs the same to solve, so timings do not depend on the seed.
    """
    if seed == 0:
        return list(FIG4_EDGES)
    rng = random.Random(seed)
    return [rng.choice(FIG4_EDGES), rng.randrange(FIG4_EDGES[0] + 1, FIG4_EDGES[1])]


def prepare(workload: str, seed: int, out_root: Path) -> list:
    """Validated specs for one workload (load_spec plus config construction)."""
    from gemsim.cli import preset_path
    from gemsim.experiments import load_spec

    if workload == "fig2_abrupt":
        return [load_spec(preset_path("fig2_abrupt"))]
    if workload == "fig3_contrast":
        return [load_spec(preset_path(name)) for name in ("fig3_gem", "fig3_eit")]
    if workload == "fig4_sweep_slice":
        doc = json.loads(preset_path("fig4_sweep").read_text())
        doc["params"]["betas"] = [FIG4_BETA]
        doc["params"]["mode_indices"] = fig4_modes(seed)
        spec_dir = out_root / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)
        path = spec_dir / f"fig4_sweep_slice-seed{seed}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return [load_spec(path)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def run_body(specs: list, out_root: Path) -> list:
    """The timed body: every spec through run_experiment, artifacts included.

    run_experiment is looked up on its module at call time so that a tracer
    that patched it sees the call.
    """
    from gemsim import experiments

    return [experiments.run_experiment(s, out_root, workers=SWEEP_WORKERS) for s in specs]


def observed_scalars(results: list) -> dict:
    """Manifest scalars as "<experiment>.<scalar>", plus each sweep's chosen
    readout offset as "<experiment>.delta_beta_<beta>"."""
    out = {}
    for r in results:
        for key, value in r.scalars.items():
            out[f"{r.name}.{key}"] = value
        if any(f["name"] == "summary.json" for f in r.files):
            summary = json.loads((r.manifest_path.parent / "summary.json").read_text())
            for beta, row in summary["per_beta"].items():
                out[f"{r.name}.delta_beta_{beta}"] = row["delta"]
    return out


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def pins_for(pins: dict, workload: str, seed: int) -> dict:
    """Pinned scalars that hold for this workload and seed."""
    entry = pins["workloads"][workload]
    return {**entry["every_seed"], **entry.get(f"seed_{seed}", {})}


def gate(results: list, pinned: dict, rel_tol: float) -> list[str]:
    """Reasons one workload execution failed; empty when it passed.

    It fails when a preset check does not pass, or when a pinned scalar is
    missing or differs from its reference by more than rel_tol relative.
    """
    failures = []
    for r in results:
        failed = [c for c in r.checks if not c["passed"]]
        for c in failed:
            failures.append(f"{r.name}: check {c['name']} = {c['value']} (expected {c['expected']})")
        if r.status != "ok" and not failed:
            failures.append(f"{r.name}: status {r.status}")
    got = observed_scalars(results)
    for key, ref in pinned.items():
        value = got.get(key)
        if value is None:
            failures.append(f"{key}: missing from the results")
        elif not (math.isfinite(value) and abs(value - ref) <= rel_tol * abs(ref)):
            failures.append(f"{key} = {value!r}, pinned {ref!r} (rel tol {rel_tol:g})")
    return failures

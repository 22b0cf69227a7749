"""gemsim benchmark: three workloads after the paper's figures 2, 3 and 4.

    python3 perfbench/run.py --workload fig2_abrupt --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from any directory of a source checkout; gemsim is imported from the
checkout's src/. One run:

1. builds the workload's validated inputs from --seed (workloads.py);
2. runs the workload body through gemsim's public API, one execution after
   another (a closed loop, one client), as many times as fit in --seconds
   (at least once), and gates every execution against the presets' own
   checks and the scalars pinned in pins.json;
3. reads peak resident memory of this process and its pool workers;
4. starts fresh interpreters that import gemsim and build the same inputs,
   to time set-up as a CLI user pays it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb). With --trace 1 every execution runs with
spans around calls into each gemsim module (tracing.py) and the metrics are
the per-layer ones; the tracing overhead is trace.wall_s there minus wall_s
of an untraced run on the same inputs (--workload all prints it). The line
before it records the machine and software the run used. A fuller record,
spans included, is written to .perfbench_out/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def _die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[name] = size
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of the gemsim sources and presets, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workers": workloads.SWEEP_WORKERS,
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> tuple[dict, list]:
    """Median set-up over SETUP_PROBES fresh interpreters: interpreter start
    to validated inputs (setup_s), with its import and input-building parts."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed), "--out", str(OUT)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append({
            "setup_s": stamps["t_ready"] - t0,
            "import_s": stamps["t_imported"] - stamps["t_import"],
            "load_spec_s": stamps["t_ready"] - stamps["t_imported"],
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}, samples


def execute(specs: list, pinned: dict, rel_tol: float, tracer=None) -> dict:
    """One workload execution, timed from validated inputs to the last
    result, then gated. An exception counts as a failed execution."""
    artifacts = OUT / "artifacts"
    shutil.rmtree(artifacts, ignore_errors=True)
    op = {}
    patches = tracer.patched(tracing.patch_targets()) if tracer else contextlib.nullcontext()
    with patches:
        t0 = time.perf_counter()
        try:
            results = workloads.run_body(specs, artifacts)
        except Exception:
            op["wall_s"] = time.perf_counter() - t0
            op["failures"] = [traceback.format_exc()]
            print(op["failures"][0], file=sys.stderr)
            return op
        op["wall_s"] = time.perf_counter() - t0
    op["failures"] = workloads.gate(results, pinned, rel_tol)
    op["artifact_bytes"] = sum(f["bytes"] for r in results for f in r.files)
    for reason in op["failures"]:
        print(f"perfbench: gate: {reason}", file=sys.stderr)
    return op


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (the pool
    workers: set-up probes have not run yet), in MB (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    if not (SRC / "gemsim" / "__init__.py").is_file():
        _die(f"no gemsim sources at {SRC}; run from a gemsim source checkout")
    sys.path.insert(0, str(SRC))
    import gemsim

    if Path(gemsim.__file__).resolve().parent != (SRC / "gemsim").resolve():
        _die(f"imported gemsim from {gemsim.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    pins = workloads.load_pins()
    pinned = workloads.pins_for(pins, args.workload, args.seed)
    specs = workloads.prepare(args.workload, args.seed, OUT)

    ops, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if args.trace else None
        ops.append(execute(specs, pinned, pins["rel_tol"], tracer))
        tracers.append(tracer)
        # Stop before an execution that would overrun --seconds.
        elapsed = time.perf_counter() - start
        if elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    shutil.rmtree(OUT / "artifacts", ignore_errors=True)
    setup, setup_samples = measure_setup(args.workload, args.seed)

    failed = sum(1 for op in ops if op["failures"])
    wall_s = statistics.median([op["wall_s"] for op in ops if not op["failures"]]
                               or [op["wall_s"] for op in ops])
    if args.trace:
        per_op = [tracing.layer_metrics(t.spans, op.get("artifact_bytes", 0))
                  for op, t in zip(ops, tracers)]
        values = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        values["setup.import_s"] = setup["import_s"]
        values["experiments.load_spec_s"] = setup["load_spec_s"]
        values["trace.wall_s"] = wall_s
        metrics = {key: _metric(v, tracing.LAYER_UNITS[key]) for key, v in sorted(values.items())}
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "setup_s": _metric(setup["setup_s"], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples": setup_samples,
        "operations": ops,
        "metrics": metrics,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(results_dir / f"{stem}.spans.csv", "w") as fh:
            fh.write("op,name,start,end,parent,work\n")
            for i, t in enumerate(tracers):
                for s in t.spans:
                    fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.work!r}\n")

    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _run_child(name: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        _die(f"workload {name} (trace {trace}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload untraced then traced, each run in its own process; one
    table, the tracing overhead per workload, and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        metrics = {}
        for trace in (0, 1):
            result = _run_child(name, args, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            metrics.update(result["metrics"])
        overhead = metrics["trace.wall_s"]["value"] - metrics["wall_s"]["value"]
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        print(f"{name}:")
        for key, m in metrics.items():
            print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="fig2_abrupt, fig3_contrast, fig4_sweep_slice or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

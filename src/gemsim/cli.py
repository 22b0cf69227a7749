"""Command line interface: validate and run experiment specs and presets.

Subcommands:
  run <spec.json>        run one spec file
  validate <spec.json>   parse + validate only
  presets list           list packaged preset names
  presets run <name>     run a packaged preset

Exit codes: 0 every check attached to the executed spec passed; 1 a check
failed; 2 the spec was rejected (a grid numpy cannot allocate included); 3
the run failed after the spec loaded (solver, analysis, memory or artifact
I/O).  Each failure prints one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .experiments import SpecValidationError, load_spec, run_experiment
from .solver import NonFiniteFieldError

PRESET_PACKAGE = "gemsim.presets"


def preset_names() -> list[str]:
    root = resources.files(PRESET_PACKAGE)
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def preset_path(name: str) -> Path:
    path = resources.files(PRESET_PACKAGE) / f"{name}.json"
    if not path.is_file():
        raise SpecValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return Path(str(path))


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemsim",
        description="Gradient-echo light-storage simulator and analysis toolkit.",
    )
    parser.add_argument("--out", default="out", help="root directory for artifacts")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for sweeps (default: 1)",
    )
    parser.add_argument(
        "--dump-fields",
        action="store_true",
        help="also write the space-time magnitude maps (|E| with |alpha|, or with the "
             "EIT spin wave and polariton) as .npy, on the z axis in z_axis.csv",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="path to the spec JSON")

    p_val = sub.add_parser("validate", help="validate a spec file and exit")
    p_val.add_argument("spec", help="path to the spec JSON")

    p_pre = sub.add_parser("presets", help="list or run packaged presets")
    pre_sub = p_pre.add_subparsers(dest="preset_command", required=True)
    pre_sub.add_parser("list", help="list available presets")
    p_pre_run = pre_sub.add_parser("run", help="run a packaged preset by name")
    p_pre_run.add_argument("name")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets" and args.preset_command == "list":
        for name in preset_names():
            print(name)
        return 0
    try:
        spec = load_spec(preset_path(args.name) if args.command == "presets" else args.spec)
    except SpecValidationError as exc:
        print(f"spec rejected: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(json.dumps({"name": spec.name, "kind": spec.kind, "valid": True}))
        return 0
    try:
        result = run_experiment(spec, args.out, workers=args.workers,
                                dump_fields=args.dump_fields)
    except (NonFiniteFieldError, ValueError, OSError, MemoryError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    print(f"{result.name}: {result.status}")
    for check in result.checks:
        state = "pass" if check["passed"] else "FAIL"
        print(f"  [{state}] {check['name']}: value={check['value']} expected={check['expected']}")
    print(f"  manifest: {result.manifest_path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

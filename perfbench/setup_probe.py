"""One set-up measurement in a fresh interpreter.

Imports gemsim from the checkout's src/ and builds one workload's validated
inputs, then prints a JSON line of time.monotonic() stamps (the clock is
system-wide, so the parent can subtract the instant it started this
process):

    python3 perfbench/setup_probe.py --root . --workload fig2_abrupt --seed 0 --out .perfbench_out
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    import workloads

    t_import = time.monotonic()
    import gemsim  # noqa: F401  (the import users pay on every CLI run)

    t_imported = time.monotonic()
    workloads.prepare(args.workload, args.seed, args.out)
    t_ready = time.monotonic()
    print(json.dumps({"t_import": t_import, "t_imported": t_imported, "t_ready": t_ready}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One set-up measurement in a fresh interpreter.

Times `import daqflow.cli` and then the preparation of one workload's
inputs, and prints both as one JSON line.  run.py starts this script
several times per run and reports the medians.

    python3 perfbench/probe_setup.py --root . --workload report_family --seed 1
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))

    t0 = perf_counter()
    import daqflow.cli  # noqa: F401

    t1 = perf_counter()
    import workloads

    t2 = perf_counter()
    workloads.prepare(args.workload, root, args.seed)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))


if __name__ == "__main__":
    main()

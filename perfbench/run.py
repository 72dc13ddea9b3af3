"""Benchmark of the delpezzo classifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it classifies with the package in
./src and writes batch files and spans under ./.perfbench.

Workloads (each a closed loop with one client and no threads in the load
generator; inputs are made from --seed):

  catalog-replay      catalog.verify_witness on the 25 catalog witnesses in a
                      seeded order, repeated: short repeating inputs
  transformed-unique  classify_surface on witnesses and invalid surfaces moved
                      by random automorphisms of P(1,1,2,3): long unique text,
                      about one input in six must be rejected
  generic-dense       classify_surface on random 32-bit (f4, f6) pairs written
                      as moved sextics, answers from an independent oracle
  cli-batch           one fresh `python -m delpezzo.cli classify --json
                      --parallel --file BATCH` process per operation, over
                      200 lines from the two generators above
  all                 every workload in turn, each in its own process

With --trace 0 the run measures the end-to-end metrics for --seconds
seconds.  With --trace 1 it classifies a fixed list of inputs with spans
around the calls into each module and reports per-layer self time and call
counts per surface, the tracing overhead and the --parallel speedup.  Every
answer is checked.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 1 when an
answer was wrong and 2 when ./src/delpezzo is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("catalog-replay", "transformed-unique", "generic-dense", "cli-batch")


def run_all(args) -> int:
    """Run every workload in its own process; merge the result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1):
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "delpezzo", "__init__.py")):
        print(f"no delpezzo package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    import delpezzo

    if not os.path.abspath(delpezzo.__file__).startswith(src + os.sep):
        print(f"imported delpezzo from {delpezzo.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.main(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

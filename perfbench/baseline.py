#!/usr/bin/env python3
"""Record the traced per-layer numbers of every workload at one seed.

Usage, from the repository root::

    python3 perfbench/baseline.py --seed 1 --seconds 25

Runs ``run.py --trace 0`` and ``--trace 1`` for each workload, writes the
results to ``perfbench/baseline.json`` and prints markdown tables of each
layer's self time and its share of the traced run, and of every other
metric (the tables in ``BASELINE.md``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from layers import LAYERS
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in doc["workloads"]]
    results = {w: {"end_to_end": _run(w, args.seed, args.seconds, 0),
                   "per_layer": _run(w, args.seed, args.seconds, 1)}
               for w in workloads}
    (HERE / "baseline.json").write_text(
        json.dumps({"seed": args.seed, "results": results}, indent=1) + "\n")

    print(f"Layer self time, traced run, seed {args.seed}: seconds "
          f"(share of all layers)\n")
    print("| layer | " + " | ".join(workloads) + " |")
    print("|---" * (len(workloads) + 1) + "|")
    for layer in LAYERS:
        cells = []
        for w in workloads:
            per_layer = results[w]["per_layer"]
            total = sum(per_layer[f"{name}.self_s"] for name in LAYERS)
            value = per_layer[f"{layer}.self_s"]
            cells.append(f"{value:.3f} ({100 * value / total:.0f}%)")
        print(f"| {layer} | " + " | ".join(cells) + " |")
    for section in ("end_to_end", "per_layer"):
        print(f"\n{section.replace('_', '-')} metrics\n")
        print("| metric | " + " | ".join(workloads) + " |")
        print("|---" * (len(workloads) + 1) + "|")
        for name in results[workloads[0]][section]:
            if section == "per_layer" and name.endswith(".self_s"):
                continue
            print(f"| `{name}` | " + " | ".join(
                f"{results[w][section][name]:.4g}" for w in workloads) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload and prints, per
metric, the median and the spread (distance between the first and third
quartile over the median) next to the metric's bound in BENCHMARK.json.
A spread at or above a third of its bound is flagged.

    python3 perfbench/steadiness.py --workload fast_timing --seeds 5
    python3 perfbench/steadiness.py --seeds 10            # every workload
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names, action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: failed\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            s = perfstats.spread(vals)
            flag = "" if s < bounds[name] / 3 else "  <-- not below bound/3"
            if flag and name != "setup_s":
                steady = False
            median = perfstats.summarize(vals)["median"]
            print(f"{workload:<18} {name:<18} median {median:.6g} "
                  f"spread {s:.4f} bound {bounds[name]}{flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

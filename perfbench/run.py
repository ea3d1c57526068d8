#!/usr/bin/env python3
"""The repository benchmark.

Builds the simulator and the benchmark binary (perfbench/CMakeLists.txt)
into .perfbench/build, runs one workload, checks every simulated result
against the pinned references and prints the metrics. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --pin --seed N     # (re)write references

--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 reports the per-layer metrics of a traced run. Workloads,
metrics and their definitions are described in perfbench/README.md.
The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfstats  # noqa: E402

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BUILD_DIR = OUT_DIR / "build"
BINARY = BUILD_DIR / "cop_perfbench"
REFERENCES = HERE / "references.json"
WORKLOADS = ["paper_grid", "steady_writeback", "fast_timing",
             "fault_recovery"]
DEFAULT_SEED = 0
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# End-to-end metrics in the result line: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_epochs_per_s": ("epochs/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the binary; fatal on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = OUT_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "cop_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace):
    """Run the binary once; its stdout is one JSON object, or None."""
    work = OUT_DIR / "work" / str(os.getpid())
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=BINARY_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: cop_perfbench timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: cop_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_references():
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {"default_seed": DEFAULT_SEED, "seeds": {}}


def system_digests(out):
    """label -> digest of every System the run checked."""
    if out["mode"] == "measure":
        digests = {label: perfstats.digest(f)
                   for label, f in zip(out["labels"], out["fields"])}
        for label, f in zip(out["labels"], out.get("oracle_fields", [])):
            digests[label + "@oracle"] = perfstats.digest(f)
        return digests
    suffix = "@oracle" if out["workload"] == "fast_timing" else ""
    return {s["label"] + suffix: perfstats.digest(s["reference_fields"])
            for s in out["systems"]}


def check(out, references):
    """Failed System labels, with the reasons for each."""
    failures = {}

    def fail_system(label, why):
        failures[label] = failures[label] + "; " + why if label in failures \
            else why

    pinned = references["seeds"].get(str(out["seed"]), {}).get(
        out["workload"])
    for label, d in system_digests(out).items():
        if pinned is not None and pinned.get(label) != d:
            fail_system(label, "digest differs from the pinned reference")
    if out["mode"] == "measure":
        for label, n in zip(out["labels"], out["rep_mismatches"]):
            if n:
                fail_system(label, f"{n} later passes disagreed")
        return failures
    for s in out["systems"]:
        label = s["label"]
        if not s["counters_match"]:
            fail_system(label, "traced counters differ")
        if s.get("stats_trace_match") is False:
            fail_system(label, "traced stats trace differs")
        if s.get("replay_matches_synthetic") is False:
            fail_system(label, "replay differs from the synthetic run")
        if s.get("fast", {}).get("runs_agree") is False:
            fail_system(label, "two fast runs disagreed")
    return failures


def end_to_end(out):
    """Summaries of the end-to-end metrics of one --trace 0 run."""
    m = {
        "setup_s": perfstats.summarize(out["setup_s"], "lower"),
        "sim_epochs_per_s": perfstats.summarize(out["epochs_per_s"],
                                                "higher"),
        "peak_rss_mb": {"median": out["peak_rss_mb"], "n": 1},
    }
    return m


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(out, failures, attempted):
    """Human-readable lines; every end-to-end metric by name and unit."""
    fp = out["fingerprint"]
    print(f"workload {out['workload']}  seed {out['seed']}  "
          f"llc_start {out['llc_start']}")
    if out["mode"] == "measure":
        print(f"{len(out['labels'])} Systems, {out['epochs_per_pass']} "
              f"epochs per pass, {out['jobs']} runner jobs")
    print(f"host nproc={fp['nproc']} cpu='{fp['cpu_model']}' "
          f"compiler='{fp['compiler']}' build={fp['build_type']} "
          f"commit={git_commit()}")
    for label, why in sorted(failures.items()):
        print(f"FAILED {label}: {why}")
    print(f"  failed_frac            {len(failures) / attempted:.6g} ratio "
          f"({len(failures)}/{attempted} Systems)")
    if out["mode"] == "measure":
        for name, s in end_to_end(out).items():
            unit = END_TO_END[name][0]
            tail = (f"; p{s['p']} {fmt(s['tail'])}" if "tail" in s else "")
            print(f"  {name:<22} {fmt(s['median'])} {unit} "
                  f"(median{tail}; n={s['n']})")
        if "oracle_ipc" in out:
            div = max(perfstats.divergence(f, o) for f, o in
                      zip(out["fast_ipc"], out["oracle_ipc"]))
            print(f"  ft_ipc_divergence_max  {div:.6g} ratio "
                  f"(simulated; {out['fast_shards']} shards)")
    else:
        for name, value in perfstats.layer_metrics(out).items():
            print(f"  {name:<36} {fmt(value)} "
                  f"{perfstats.LAYER_UNITS[name]}")


def git_commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def result_line(out, failures, attempted):
    if out["mode"] == "measure":
        metrics = {name: {"value": s["median"], "unit": END_TO_END[name][0]}
                   for name, s in end_to_end(out).items()}
    else:
        metrics = {name: {"value": v, "unit": perfstats.LAYER_UNITS[name]}
                   for name, v in perfstats.layer_metrics(out).items()}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_one(workload, seed, seconds, trace, references):
    """Run, check and report one workload; its result line, or None."""
    out = run_binary(workload, seed, seconds, trace)
    if out is None:
        return None
    failures = check(out, references)
    attempted = len(system_digests(out))
    report(out, failures, attempted)
    return result_line(out, failures, attempted)


def pin(seed, seconds):
    """Record the digests of every workload's Systems for one seed."""
    references = load_references()
    pinned = {}
    for workload in WORKLOADS:
        out = run_binary(workload, seed, seconds, 0)
        if out is None or any(out["rep_mismatches"]):
            fail(f"cannot pin {workload}: run failed or disagreed")
        pinned[workload] = system_digests(out)
        if workload == "fast_timing":
            pinned["fast_timing_ipc_divergence_max"] = max(
                perfstats.divergence(f, o) for f, o in
                zip(out["fast_ipc"], out["oracle_ipc"]))
    references["seeds"][str(seed)] = pinned
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n")
    print(f"pinned seed {seed} in {REFERENCES}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload (end-to-end metrics)")
    ap.add_argument("--pin", action="store_true",
                    help="write the references for --seed")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (args.workload or args.all or args.pin):
        ap.error("one of --workload, --all or --pin is required")

    build()
    if args.pin:
        pin(args.seed, args.seconds)
        return 0
    references = load_references()
    workloads = WORKLOADS if args.all else [args.workload]
    trace = 0 if args.all else args.trace
    ok = True
    for workload in workloads:
        result = run_one(workload, args.seed, args.seconds, trace,
                         references)
        if result is None:
            # An abort fails every System of the workload; no result.
            print(f"FAILED {workload}: cop_perfbench aborted")
            print("  failed_frac            1 ratio")
            ok = False
            continue
        ok = ok and result["correct"]
        if not args.all:
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

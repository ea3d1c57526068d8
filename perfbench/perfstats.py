"""The benchmark's arithmetic: summaries, digests and per-layer metrics.

Kept apart from run.py so that tests/test_perfstats.py can check it
without building or running the simulator.
"""

import hashlib
import math
import statistics

# Fewest samples that must lie above a reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_SAMPLES of n samples
    above it (nearest-rank), or None when n is too small."""
    if n <= TAIL_SAMPLES:
        return None
    return (100 * (n - TAIL_SAMPLES)) // n


def summarize(values, better="lower"):
    """Median, the tail percentile on the worse side, and the count.

    The tail is taken by nearest rank from the worse end: the slow end
    for times, the low end for rates that are better higher.
    """
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        ranked = sorted(values, reverse=(better == "higher"))
        rank = max(1, math.ceil(p * len(values) / 100))
        out["p"] = p
        out["tail"] = ranked[rank - 1]
    return out


def spread(values):
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def digest(fields):
    """Short digest of a System's result fields (name -> number).

    Independent of field order; integers print exactly and floats by
    their shortest round-trip form.
    """
    lines = "".join(f"{k}={fields[k]!r}\n" for k in sorted(fields))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def divergence(fast_ipc, oracle_ipc):
    """|fast - oracle| / oracle."""
    return abs(fast_ipc - oracle_ipc) / oracle_ipc


def parallel_efficiency(cell_seconds, makespan, jobs):
    """Busy share of the runner's jobs over the makespan."""
    return sum(cell_seconds) / (makespan * jobs)


def self_ns(span):
    """Self time of an [inclusive, child, count] span total."""
    inclusive, child, _ = span
    return inclusive - child


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "workloads.next_ns_per_epoch": "ns",
    "workloads.pool_ns_per_miss": "ns",
    "workloads.pool_calls_per_miss": "ratio",
    "workloads.pool_hit_rate": "ratio",
    "workloads.bump_ns_per_write": "ns",
    "trace.next_ns_per_epoch": "ns",
    "cache.access_ns": "ns",
    "cache.insert_self_ns": "ns",
    "cache.miss_rate": "ratio",
    "cache.dirty_evictions_per_miss": "ratio",
    "cache.fill_epoch": "epochs",
    "cache.post_fill_miss_share": "ratio",
    "mem.read_self_ns_per_miss": "ns",
    "mem.writeback_self_ns": "ns",
    "mem.alias_check_ns": "ns",
    "mem.dram_accesses_per_miss": "ratio",
    "mem.encodes_per_miss": "ratio",
    "mem.encode_memo_hit_rate": "ratio",
    "core.encode_ns": "ns",
    "core.decode_ns": "ns",
    "dram.access_ns": "ns",
    "dram.row_hit_rate": "ratio",
    "reliability.advance_ns_per_epoch": "ns",
    "reliability.recovery_reads_per_miss": "ratio",
    "stats.drain_us_per_snapshot": "us",
    "stats.snapshot_bytes": "bytes",
    "sim.loop_self_ns_per_miss": "ns",
    "sim.construct_ms": "ms",
    "sim.tracing_overhead": "ratio",
    "sim.runner.parallel_efficiency": "ratio",
    "sim.runner.cell_s_p50": "s",
    "sim.runner.cell_s_max": "s",
    "sim.fast.speedup_vs_serial": "ratio",
    "sim.fast.construct_ms": "ms",
    "sim.fast.barriers": "count",
    "sim.fast.ipc_divergence_max": "ratio",
}


def layer_metrics(run):
    """Per-layer metrics of one --trace 1 run, summed over its Systems.

    Metrics of a layer the workload does not run read 0.
    """
    systems = run["systems"]

    def total(key):
        return sum(s[key] for s in systems)

    def span(name):
        inclusive = sum(s["spans"][name][0] for s in systems)
        child = sum(s["spans"][name][1] for s in systems)
        count = sum(s["spans"][name][2] for s in systems)
        return [inclusive, child, count]

    misses = total("misses")
    epochs = total("epochs")
    m = {}
    m["workloads.next_ns_per_epoch"] = _ratio(span("workloads.next")[0],
                                              epochs)
    m["workloads.pool_ns_per_miss"] = _ratio(span("workloads.pool")[0],
                                             misses)
    m["workloads.pool_calls_per_miss"] = _ratio(total("pool_calls"), misses)
    m["workloads.pool_hit_rate"] = _ratio(total("pool_hits"),
                                          total("pool_calls"))
    bump = span("workloads.bump")
    m["workloads.bump_ns_per_write"] = _ratio(bump[0], bump[2])
    m["trace.next_ns_per_epoch"] = _ratio(span("trace.next")[0], epochs)
    access = span("cache.access")
    m["cache.access_ns"] = _ratio(access[0], access[2])
    insert = span("cache.insert")
    m["cache.insert_self_ns"] = _ratio(self_ns(insert), insert[2])
    m["cache.miss_rate"] = _ratio(misses, misses + total("hits"))
    m["cache.dirty_evictions_per_miss"] = _ratio(total("dirty_evictions"),
                                                 misses)
    m["cache.fill_epoch"] = statistics.median(s["fill_epoch"]
                                              for s in systems)
    m["cache.post_fill_miss_share"] = _ratio(total("misses_after_fill"),
                                             misses)
    m["mem.read_self_ns_per_miss"] = _ratio(self_ns(span("mem.read")),
                                            misses)
    wb = span("mem.writeback")
    m["mem.writeback_self_ns"] = _ratio(self_ns(wb), wb[2])
    alias = span("mem.alias_check")
    m["mem.alias_check_ns"] = _ratio(alias[0], alias[2])
    m["mem.dram_accesses_per_miss"] = _ratio(total("dram_accesses"), misses)
    m["mem.encodes_per_miss"] = _ratio(total("encode_calls"), misses)
    m["mem.encode_memo_hit_rate"] = _ratio(total("memo_hits"),
                                           total("encode_calls"))
    codec = [s["codec"] for s in systems]
    m["core.encode_ns"] = _ratio(sum(c["encode_ns"] for c in codec),
                                 sum(c["encodes"] for c in codec))
    m["core.decode_ns"] = _ratio(sum(c["decode_ns"] for c in codec),
                                 sum(c["decodes"] for c in codec))
    dram = [s["dram_replay"] for s in systems]
    requests = sum(d["requests"] for d in dram)
    m["dram.access_ns"] = _ratio(sum(d["ns"] for d in dram), requests)
    m["dram.row_hit_rate"] = _ratio(sum(d["row_hits"] for d in dram),
                                    requests)
    m["reliability.advance_ns_per_epoch"] = _ratio(
        span("reliability.advance")[0], epochs)
    m["reliability.recovery_reads_per_miss"] = _ratio(
        total("recovery_reads"), misses)
    drain = span("stats.drain")
    m["stats.drain_us_per_snapshot"] = _ratio(drain[0], drain[2]) / 1e3
    m["stats.snapshot_bytes"] = _ratio(total("snapshot_bytes"),
                                       total("snapshots"))
    m["sim.loop_self_ns_per_miss"] = _ratio(self_ns(span("sim.loop")),
                                            misses)
    m["sim.construct_ms"] = 1e3 * _ratio(total("construct_s"), len(systems))
    m["sim.tracing_overhead"] = _ratio(total("traced_s"),
                                       total("run_s")) - 1.0

    runner = run.get("runner")
    if runner:
        cells = runner["cell_s"]
        m["sim.runner.parallel_efficiency"] = parallel_efficiency(
            cells, runner["makespan_s"], runner["jobs"])
        m["sim.runner.cell_s_p50"] = statistics.median(cells)
        m["sim.runner.cell_s_max"] = max(cells)
    else:
        for k in ("parallel_efficiency", "cell_s_p50", "cell_s_max"):
            m["sim.runner." + k] = 0.0

    fast = [s["fast"] for s in systems if "fast" in s]
    if fast:
        m["sim.fast.speedup_vs_serial"] = _ratio(
            total("run_s"), sum(f["run_s"] for f in fast))
        m["sim.fast.construct_ms"] = 1e3 * _ratio(
            sum(f["construct_s"] for f in fast), len(fast))
        m["sim.fast.barriers"] = sum(f["barriers"] for f in fast)
        m["sim.fast.ipc_divergence_max"] = max(
            divergence(f["ipc"], f["oracle_ipc"]) for f in fast)
    else:
        for k in ("speedup_vs_serial", "construct_ms", "barriers",
                  "ipc_divergence_max"):
            m["sim.fast." + k] = 0.0
    assert set(m) == set(LAYER_UNITS)
    return m

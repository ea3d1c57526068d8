/**
 * @file
 * The traced loop: System's serial merge loop rebuilt from the
 * layers' public calls, with a steady_clock span around every call into
 * a layer. It must reproduce System::run's counters exactly; the
 * benchmark checks that on every System it traces. The spans give each
 * layer's host time, the counts give the work it did.
 */

#ifndef COP_PERFBENCH_TRACED_SYSTEM_HPP
#define COP_PERFBENCH_TRACED_SYSTEM_HPP

#include <array>
#include <vector>

#include "sim/system.hpp"

namespace cop::perfbench {

/** Layer calls the traced loop wraps in spans. */
enum class SpanId : unsigned
{
    Loop,            ///< sim.loop: the whole merge loop (root span).
    EpochNext,       ///< workloads.next: TraceGenerator::next.
    ReplayNext,      ///< trace.next: a replaying EpochSource::next.
    Pool,            ///< workloads.pool: BlockContentPool::blockForRef.
    Bump,            ///< workloads.bump: BlockContentPool::bumpVersion.
    CacheAccess,     ///< cache.access: SetAssocCache::access.
    CacheInsert,     ///< cache.insert: SetAssocCache::insert.
    MemRead,         ///< mem.read: MemoryController::read.
    MemWriteback,    ///< mem.writeback: MemoryController::writeback.
    AliasCheck,      ///< mem.alias_check: wouldAliasReject.
    InjectorAdvance, ///< reliability.advance: LiveInjector::advanceTo.
    StatsDrain,      ///< stats.drain: StatsRegistry::drainEpochJson.
    Count
};

inline constexpr unsigned kSpanCount = static_cast<unsigned>(SpanId::Count);

/** Stable metric-facing name of a span. */
const char *spanName(SpanId id);

/** Accumulated time of one span name. */
struct SpanTotals
{
    u64 inclusiveNs = 0; ///< Sum of span durations.
    u64 childNs = 0;     ///< Part of them covered by child spans.
    u64 count = 0;       ///< Spans recorded.
};

/** Everything one traced run recorded. */
struct TracedRun
{
    /** Assembled exactly as System::run assembles its results. */
    SystemResults results;
    std::array<SpanTotals, kSpanCount> spans{};
    /** Host wall time of the merge loop, spans included. */
    double wallSeconds = 0;
    /**
     * Per-core epoch at which LLC residency (misses - evictions) first
     * reached 90 % of its lines; epochsPerCore when it never did.
     */
    u64 fillEpoch = 0;
    /** LLC misses after the fill. */
    u64 missesAfterFill = 0;
    /** Stats-trace snapshots drained and their total size. */
    u64 snapshots = 0;
    u64 snapshotBytes = 0;
    /** Block contents sampled at fills and writebacks (codec replay). */
    std::vector<CacheBlock> codecSamples;
    /** Data requests at the controller boundary (DRAM replay). */
    std::vector<DramRequest> dramRequests;
};

/**
 * Run @p cfg (serial only: fastTiming off, simThreads 1) through the
 * traced loop. With cfg.traceStatsPath set, the stats trace goes to
 * @p stats_path instead, so it can be compared with System::run's.
 */
TracedRun runTraced(const WorkloadProfile &profile, const SystemConfig &cfg,
                    const std::string &stats_path);

} // namespace cop::perfbench

#endif // COP_PERFBENCH_TRACED_SYSTEM_HPP

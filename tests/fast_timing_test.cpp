/**
 * @file
 * Divergence contract of the relaxed-consistency fast-timing mode
 * (SystemConfig::fastTiming, DESIGN.md §8.2). Fast timing trades the
 * byte-identity contract for true shard parallelism: results may
 * diverge from the simThreads=1 oracle, but only within a pinned
 * epsilon, deterministically (two fast runs of the same configuration
 * are byte-identical to *each other*), and visibly (the ft_* results
 * fields report the approximation, never hide it). The serial oracle
 * must be entirely unaffected, and simThreads without fastTiming is
 * rejected.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::Unprotected, ControllerKind::EccDimm,
    ControllerKind::EccRegion,   ControllerKind::Cop4,
    ControllerKind::Cop8,        ControllerKind::CopEr,
    ControllerKind::CopErNaive,
};

/**
 * Pinned divergence epsilons (relative IPC and relative average read
 * latency vs. the simThreads=1 oracle), per scheme, for the
 * smallConfig() gcc run below. The 256 KB LLC drives far more DRAM
 * pressure per channel than the Table 1 system, deliberately
 * stressing the ambient-contention model well beyond the gated
 * default-profile operating point (divergence there is ~1-2%, gated
 * by scripts/check_perf.py); the epsilons bound that stress case with
 * margin for calibration drift, while still failing hard if the
 * ambient model breaks outright. EccRegion is the documented
 * outlier: its ECC-region traffic concentrates all cores onto a few
 * DRAM banks, and the ambient-contention model spreads external load
 * uniformly, so the hotspot queueing is under-modelled (DESIGN.md
 * §8.2 lists this as a known limitation of the relaxed mode).
 */
double
ipcEpsilon(ControllerKind kind)
{
    return kind == ControllerKind::EccRegion ? 0.30 : 0.20;
}

double
latencyEpsilon(ControllerKind kind)
{
    return kind == ControllerKind::EccRegion ? 0.25 : 0.18;
}

SystemConfig
smallConfig(ControllerKind kind)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.kind = kind;
    cfg.epochsPerCore = 1000;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34};
    cfg.verifyData = true; // the serial oracle keeps its checker
    return cfg;
}

SystemResults
runOnce(const WorkloadProfile &profile, SystemConfig cfg,
        unsigned sim_threads, bool fast)
{
    cfg.simThreads = sim_threads;
    cfg.fastTiming = fast;
    System sys(profile, cfg);
    return sys.run();
}

std::string
runJson(const WorkloadProfile &profile, SystemConfig cfg,
        unsigned sim_threads, bool fast)
{
    cfg.simThreads = sim_threads;
    cfg.fastTiming = fast;
    System sys(profile, cfg);
    std::string out;
    appendResultsJson(out, sys.run());
    return out;
}

double
relDelta(double fast, double oracle)
{
    return oracle != 0.0 ? std::abs(fast - oracle) / oracle : 0.0;
}

TEST(FastTiming, DivergenceWithinEpsilonForEveryScheme)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    for (const ControllerKind kind : kAllKinds) {
        const SystemConfig cfg = smallConfig(kind);
        const SystemResults oracle = runOnce(profile, cfg, 1, false);
        const SystemResults fast = runOnce(profile, cfg, 4, true);

        const double ipc_div = relDelta(fast.ipc, oracle.ipc);
        const double lat_div = relDelta(fast.dram.avgReadLatency(),
                                        oracle.dram.avgReadLatency());
        // Diagnostic: the measured divergence behind the pinned bound.
        std::printf("[ ft-div   ] %-12s ipc %+6.2f%%  read-lat %+6.2f%%\n",
                    controllerKindName(kind), ipc_div * 100.0,
                    lat_div * 100.0);

        EXPECT_LE(ipc_div, ipcEpsilon(kind))
            << controllerKindName(kind) << ": fast-timing IPC "
            << fast.ipc << " vs oracle " << oracle.ipc;
        EXPECT_LE(lat_div, latencyEpsilon(kind))
            << controllerKindName(kind)
            << ": fast-timing avg read latency "
            << fast.dram.avgReadLatency() << " vs oracle "
            << oracle.dram.avgReadLatency();

        // The approximation is reported, never hidden.
        EXPECT_TRUE(fast.fastTiming);
        EXPECT_EQ(fast.ftShards, 4u);
        EXPECT_GT(fast.ftBarriers, 0u);
        EXPECT_FALSE(oracle.fastTiming);
        EXPECT_EQ(oracle.ftShards, 0u);
        EXPECT_EQ(oracle.dram.ambientStallCycles, 0u);
        EXPECT_EQ(oracle.dram.ambientRowCloses, 0u);

        // Functional totals the relaxed mode must NOT change: every
        // core still runs every epoch with the same generator stream.
        EXPECT_EQ(fast.instructions, oracle.instructions);
    }
}

TEST(FastTiming, DeterministicAcrossRuns)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    for (const ControllerKind kind : kAllKinds) {
        SystemConfig cfg = smallConfig(kind);
        cfg.epochsPerCore = 600;
        EXPECT_EQ(runJson(profile, cfg, 4, true),
                  runJson(profile, cfg, 4, true))
            << controllerKindName(kind)
            << ": two fast-timing runs disagree";
    }
}

TEST(FastTiming, SharedFootprintVersionsReconcile)
{
    // A Parsec profile shares one footprint across cores; shards merge
    // store-version bumps at every quantum barrier.
    const auto &profile = WorkloadRegistry::byName("streamcluster");
    const SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    const SystemResults oracle = runOnce(profile, cfg, 1, false);
    const SystemResults fast = runOnce(profile, cfg, 4, true);

    EXPECT_GT(fast.ftVersionMerges, 0u)
        << "sharedFootprint run reconciled no versions";
    const double ipc_div = relDelta(fast.ipc, oracle.ipc);
    std::printf("[ ft-div   ] %-12s ipc %+6.2f%% (sharedFootprint)\n",
                profile.name.c_str(), ipc_div * 100.0);
    EXPECT_LE(ipc_div, 0.25);
    EXPECT_EQ(fast.instructions, oracle.instructions);
}

TEST(FastTiming, SerialRunReportsNoFastTimingState)
{
    // The serial oracle carries no trace of the relaxed mode: no ft
    // fields, no ambient contention model.
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.epochsPerCore = 600;
    const SystemResults serial = runOnce(profile, cfg, 1, false);
    EXPECT_FALSE(serial.fastTiming);
    EXPECT_EQ(serial.ftShards, 0u);
    EXPECT_EQ(serial.ftQuantumEpochs, 0u);
    EXPECT_EQ(serial.ftBarriers, 0u);
    EXPECT_EQ(serial.ftClockSkewMax, 0u);
    EXPECT_EQ(serial.ftVersionMerges, 0u);
    EXPECT_EQ(serial.dram.ambientStallCycles, 0u);
    EXPECT_EQ(serial.dram.ambientRowCloses, 0u);
}

using FastTimingDeathTest = ::testing::Test;

TEST(FastTimingDeathTest, RejectsFaultInjection)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.simThreads = 4;
    cfg.fastTiming = true;
    cfg.fault.enabled = true;
    EXPECT_DEATH(System(profile, cfg),
                 "incompatible with fault injection");
}

TEST(FastTimingDeathTest, RejectsSingleCore)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.cores = 1;
    cfg.simThreads = 4;
    cfg.fastTiming = true;
    EXPECT_DEATH(System(profile, cfg), ">= 2 cores");
}

TEST(FastTimingDeathTest, RejectsSingleThread)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.simThreads = 1;
    cfg.fastTiming = true;
    EXPECT_DEATH(System(profile, cfg), "simThreads >= 2");
}

TEST(FastTimingDeathTest, RejectsSimThreadsWithoutFastTiming)
{
    // simThreads is the fast-timing shard count; without fastTiming a
    // value other than 1 would be silently ignored, so it is fatal.
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.fastTiming = false;
    cfg.simThreads = 3;
    EXPECT_DEATH(System(profile, cfg), "simThreads=3 needs fastTiming");
    cfg.simThreads = 0;
    EXPECT_DEATH(System(profile, cfg), "simThreads=0 needs fastTiming");
}

TEST(FastTimingDeathTest, RejectsZeroQuantum)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.simThreads = 4;
    cfg.fastTiming = true;
    cfg.fastTimingQuantumEpochs = 0;
    EXPECT_DEATH(System(profile, cfg), "must be positive");
}

} // namespace
} // namespace cop

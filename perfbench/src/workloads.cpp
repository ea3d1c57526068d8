#include "workloads.hpp"

#include "capture.hpp"
#include "trace/replay.hpp"

namespace cop::perfbench {

namespace {

/** Table 1: 4 cores, 4 MB 16-way LLC, verifyData on (fig11's set-up). */
SystemConfig
paperConfig(ControllerKind kind, u64 epochs, u64 seed)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.llc = CacheConfig{4ULL << 20, 16, 34};
    cfg.kind = kind;
    cfg.epochsPerCore = epochs;
    cfg.verifyData = true;
    cfg.seedSalt = seed;
    return cfg;
}

const char *
schemeLabel(ControllerKind kind)
{
    switch (kind) {
      case ControllerKind::Unprotected: return "unprot";
      case ControllerKind::Cop4: return "cop4";
      case ControllerKind::CopEr: return "coper";
      case ControllerKind::EccRegion: return "ecc_region";
      default: break;
    }
    COP_PANIC("scheme not used by the benchmark");
}

void
addSystem(Workload &w, const WorkloadProfile &profile,
          const SystemConfig &cfg)
{
    w.systems.push_back(SystemSpec{
        profile.name + "/" + schemeLabel(cfg.kind), profile, cfg});
}

/** Figure 11: every memory-intensive profile under four schemes. */
constexpr u64 kGridEpochs = 12000;
/**
 * lbm fills the 4 MB LLC early in this run and writes back steadily.
 * Its peak memory is the same for every seed here; near 40000 epochs
 * the controller's hash maps double or not depending on the seed.
 */
constexpr u64 kSteadyEpochs = 44000;
/** gcc with a warm LLC, at the length fast-timing users run. */
constexpr u64 kFastEpochs = 30000;
/** Long enough for several patrol-scrub passes over the footprint. */
constexpr u64 kFaultEpochs = 50000;

/** fault_campaign's accelerated multi-bit arrival rate. */
constexpr double kFaultEventsPerMegacycle = 800.0;
constexpr u64 kFaultSeed = 0xC0FFEE;
constexpr Cycle kScrubIntervalCycles = 1000000;

} // namespace

u64
Workload::totalEpochs() const
{
    u64 total = 0;
    for (const SystemSpec &s : systems)
        total += s.cfg.epochsPerCore * s.cfg.cores;
    return total;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_grid", "steady_writeback", "fast_timing", "fault_recovery"};
    return names;
}

SystemConfig
serialOracle(const SystemConfig &fast)
{
    SystemConfig cfg = fast;
    cfg.fastTiming = false;
    cfg.simThreads = 1;
    return cfg;
}

Workload
makeWorkload(const std::string &name, u64 seed, const std::string &work_dir)
{
    Workload w;
    w.name = name;
    if (name == "paper_grid") {
        w.kind = WorkloadKind::Grid;
        const auto profiles = WorkloadRegistry::memoryIntensive();
        w.systems.reserve(profiles.size() * 4);
        for (const WorkloadProfile *p : profiles) {
            for (const ControllerKind kind :
                 {ControllerKind::Unprotected, ControllerKind::Cop4,
                  ControllerKind::CopEr, ControllerKind::EccRegion})
                addSystem(w, *p, paperConfig(kind, kGridEpochs, seed));
        }
    } else if (name == "steady_writeback") {
        const WorkloadProfile &lbm = WorkloadRegistry::byName("lbm");
        for (const ControllerKind kind :
             {ControllerKind::Cop4, ControllerKind::CopEr})
            addSystem(w, lbm, paperConfig(kind, kSteadyEpochs, seed));
        // One capture serves both schemes: the address stream does not
        // depend on the scheme.
        const std::vector<std::string> paths = captureCoreTraces(
            lbm, 4, kSteadyEpochs, seed, work_dir + "/lbm.s" +
                                             std::to_string(seed));
        for (SystemSpec &s : w.systems)
            s.cfg.epochSource = makeTraceReplayFactory(s.profile, paths);
    } else if (name == "fast_timing") {
        w.kind = WorkloadKind::Fast;
        const WorkloadProfile &gcc = WorkloadRegistry::byName("gcc");
        for (const ControllerKind kind :
             {ControllerKind::Cop4, ControllerKind::EccRegion}) {
            SystemConfig cfg = paperConfig(kind, kFastEpochs, seed);
            cfg.fastTiming = true;
            cfg.simThreads = kFastShards;
            cfg.fastTimingQuantumEpochs = kFastQuantumEpochs;
            addSystem(w, gcc, cfg);
        }
    } else if (name == "fault_recovery") {
        // fault_campaign / ablation_scrubbing: the first memory-intensive
        // profile with its footprint shrunk so strikes land on stored
        // images, and a small LLC so faulted blocks are re-read.
        WorkloadProfile profile = *WorkloadRegistry::memoryIntensive()[0];
        profile.footprintBlocks = 1u << 12;
        w.systems.reserve(2);
        for (const ControllerKind kind :
             {ControllerKind::Cop4, ControllerKind::CopEr}) {
            SystemConfig cfg = paperConfig(kind, kFaultEpochs, seed);
            cfg.llc = CacheConfig{64ULL << 10, 8, 34};
            cfg.fault.enabled = true;
            cfg.fault.eventsPerMegacycle = kFaultEventsPerMegacycle;
            cfg.fault.flipsPerEvent = 2;
            cfg.fault.ondieEcc = true;
            cfg.fault.seed = kFaultSeed ^ seed;
            cfg.fault.scrubIntervalCycles = kScrubIntervalCycles;
            cfg.traceStatsPath = work_dir + "/" + profile.name + "." +
                                 schemeLabel(kind) + ".stats.jsonl";
            addSystem(w, profile, cfg);
        }
    } else {
        COP_FATAL("unknown workload: " + name);
    }
    return w;
}

} // namespace cop::perfbench

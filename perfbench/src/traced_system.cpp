#include "traced_system.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "mem/coper_controller.hpp"

namespace cop::perfbench {

const char *
spanName(SpanId id)
{
    switch (id) {
      case SpanId::Loop: return "sim.loop";
      case SpanId::EpochNext: return "workloads.next";
      case SpanId::ReplayNext: return "trace.next";
      case SpanId::Pool: return "workloads.pool";
      case SpanId::Bump: return "workloads.bump";
      case SpanId::CacheAccess: return "cache.access";
      case SpanId::CacheInsert: return "cache.insert";
      case SpanId::MemRead: return "mem.read";
      case SpanId::MemWriteback: return "mem.writeback";
      case SpanId::AliasCheck: return "mem.alias_check";
      case SpanId::InjectorAdvance: return "reliability.advance";
      case SpanId::StatsDrain: return "stats.drain";
      case SpanId::Count: break;
    }
    COP_PANIC("bad span id");
}

namespace {

/**
 * Nested span timer. A span's duration is added to its own inclusive
 * total and to its parent's child total, so self time is
 * inclusive - child.
 */
class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, SpanId id) : rec_(rec) { rec_.open(id); }
        ~Scope() { rec_.close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
    };

    const std::array<SpanTotals, kSpanCount> &
    totals() const
    {
        return totals_;
    }

  private:
    struct Frame
    {
        SpanId id = SpanId::Loop;
        Clock::time_point start{};
        u64 childNs = 0;
    };

    void
    open(SpanId id)
    {
        stack_.push_back(Frame{id, Clock::now(), 0});
    }

    void
    close()
    {
        const Clock::time_point end = Clock::now();
        const Frame f = stack_.back();
        stack_.pop_back();
        const u64 ns = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - f.start)
                .count());
        SpanTotals &t = totals_[static_cast<unsigned>(f.id)];
        t.inclusiveNs += ns;
        t.childNs += f.childNs;
        ++t.count;
        if (!stack_.empty())
            stack_.back().childNs += ns;
    }

    std::vector<Frame> stack_;
    std::array<SpanTotals, kSpanCount> totals_{};
};

/** Every Nth fill or writeback contributes a codec sample. */
constexpr u64 kCodecSampleStride = 8;
constexpr size_t kMaxCodecSamples = 8192;
constexpr size_t kMaxDramRequests = size_t{1} << 18;
/** LLC residency share that counts as "filled". */
constexpr double kFillShare = 0.9;

/**
 * The serial System, rebuilt call for call (sim/system.cpp: the public
 * constructor with one shard, mergeLoop, runEpoch, handleMiss,
 * performWriteback, collectResults), with spans around layer calls.
 */
class TracedSystem
{
  public:
    TracedSystem(const WorkloadProfile &profile, const SystemConfig &cfg)
        : profile_(profile), cfg_(cfg), dram_(cfg.dram), llc_(cfg.llc)
    {
        if (cfg_.fastTiming || cfg_.simThreads != 1)
            COP_FATAL("the traced loop rebuilds the serial loop only");
        cores_.resize(cfg_.cores);
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            if (cfg_.epochSource)
                cores_[c].gen = cfg_.epochSource(c, cfg_.contentCacheEntries);
            else
                cores_[c].gen = std::make_unique<TraceGenerator>(
                    profile, c, cfg_.seedSalt, cfg_.contentCacheEntries);
            cores_[c].pool = &cores_[c].gen->pool();
        }
        nextSpan_ = cfg_.epochSource ? SpanId::ReplayNext
                                     : SpanId::EpochNext;
        encodeMemo_ = std::make_unique<EncodeMemo>(cfg_.encodeMemoEntries);
        controller_ = makeController(
            cfg_.kind, dram_,
            [this](Addr addr) -> const CacheBlock & {
                SpanRecorder::Scope s(spans_, SpanId::Pool);
                return poolFor(addr).blockForRef(addr);
            },
            cfg_.decodeLatency, cfg_.metaCacheBytes, encodeMemo_.get());
        if (cfg_.bandwidthCompression)
            controller_->enableBandwidthMode(cfg_.bandwidthBeatFloor);
        if (cfg_.adaptiveEccCapacity)
            controller_->enableAdaptiveCapacity();
        evictFilter_ = [this](Addr victim, const CacheLineState &) {
            {
                SpanRecorder::Scope s(spans_, SpanId::Pool);
                probedData_ = poolFor(victim).blockForRef(victim);
            }
            probedAddr_ = victim;
            probed_ = true;
            SpanRecorder::Scope s(spans_, SpanId::AliasCheck);
            return !controller_->wouldAliasReject(probedData_);
        };

        // Same allocation hints as System (they move host time only).
        const u64 poolRegions =
            (profile_.sharedFootprint || cfg_.cores == 1) ? 1 : cfg_.cores;
        const u64 expectedRefs =
            cfg_.epochsPerCore * cfg_.cores * (2 * profile_.mlp + 1) / 2;
        const u64 touchEstimate =
            std::min({poolRegions * profile_.footprintBlocks, expectedRefs,
                      u64{1} << 19});
        controller_->reserveFootprint(touchEstimate);
        const u64 writeEstimate = static_cast<u64>(
            static_cast<double>(touchEstimate / poolRegions) *
            profile_.writeFraction);
        for (unsigned c = 0; c < poolRegions; ++c)
            cores_[c].gen->pool().reserveVersions(writeEstimate);

        if (cfg_.fault.enabled) {
            controller_->enableFaultInjection(cfg_.fault.recovery);
            const u64 footprint =
                poolRegions * profile_.footprintBlocks * kBlockBytes;
            injector_ = std::make_unique<LiveInjector>(
                cfg_.fault, *controller_, footprint, cfg_.seedSalt);
        }
        registerAllStats();
    }

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    TracedRun
    run(const std::string &stats_path)
    {
        std::ofstream trace;
        if (!cfg_.traceStatsPath.empty()) {
            trace.open(stats_path);
            if (!trace)
                COP_FATAL("cannot open stats trace " + stats_path);
        }
        fillLines_ = static_cast<u64>(
            kFillShare * static_cast<double>(cfg_.llc.sizeBytes /
                                             kBlockBytes));
        fillEpoch_ = cfg_.epochsPerCore;
        const auto start = SpanRecorder::Clock::now();
        {
            SpanRecorder::Scope loop(spans_, SpanId::Loop);
            mergeLoop(trace);
        }
        TracedRun out;
        out.wallSeconds = std::chrono::duration<double>(
                              SpanRecorder::Clock::now() - start)
                              .count();
        out.results = collectResults();
        out.spans = spans_.totals();
        out.fillEpoch = fillEpoch_;
        out.missesAfterFill = missCount_ - missesAtFill_;
        out.snapshots = snapshots_;
        out.snapshotBytes = snapshotBytes_;
        out.codecSamples = std::move(codecSamples_);
        out.dramRequests = std::move(dramRequests_);
        return out;
    }

  private:
    struct Core
    {
        std::unique_ptr<EpochSource> gen;
        BlockContentPool *pool = nullptr;
        Cycle clock = 0;
        u64 instructions = 0;
        u64 epochsDone = 0;
    };

    BlockContentPool &
    poolFor(Addr addr)
    {
        if (profile_.sharedFootprint || cfg_.cores == 1)
            return *cores_[0].pool;
        const u64 region = profile_.footprintBlocks * kBlockBytes;
        const u64 core = addr / region;
        if (core >= cores_.size())
            COP_PANIC("address outside the per-core footprint regions");
        return *cores_[core].pool;
    }

    void
    sampleBlock(const CacheBlock &block, u64 event)
    {
        if (event % kCodecSampleStride == 0 &&
            codecSamples_.size() < kMaxCodecSamples)
            codecSamples_.push_back(block);
    }

    void
    noteRequest(Addr addr, bool is_write, Cycle now)
    {
        if (dramRequests_.size() < kMaxDramRequests)
            dramRequests_.push_back(DramRequest{addr, is_write, now, 8});
    }

    void
    performWriteback(const CacheEviction &ev, Cycle now,
                     const CacheBlock *data)
    {
        const CacheBlock *block = data;
        if (block == nullptr) {
            SpanRecorder::Scope s(spans_, SpanId::Pool);
            block = &poolFor(ev.addr).blockForRef(ev.addr);
        }
        sampleBlock(*block, writebacks_);
        noteRequest(ev.addr, true, now);
        MemWriteResult wr;
        {
            SpanRecorder::Scope s(spans_, SpanId::MemWriteback);
            wr = controller_->writeback(ev.addr, *block, now,
                                        ev.state.wasUncompressed);
        }
        COP_ASSERT(!wr.aliasRejected);
        ++writebacks_;
    }

    Cycle
    handleMiss(Addr addr, bool is_write, Cycle now)
    {
        ++missCount_;
        noteRequest(addr, false, now);
        MemReadResult fill;
        {
            SpanRecorder::Scope s(spans_, SpanId::MemRead);
            fill = controller_->read(addr, now);
        }
        sampleBlock(fill.data, missCount_);

        if (cfg_.verifyData) {
            bool match = false;
            {
                SpanRecorder::Scope s(spans_, SpanId::Pool);
                match = fill.data == poolFor(addr).blockForRef(addr);
            }
            if (!match && !fill.detectedUncorrectable) {
                if (cfg_.fault.enabled)
                    controller_->noteSilentFill(addr, fill.fillClass, now);
                else
                    COP_PANIC("memory returned wrong data for block " +
                              std::to_string(addr));
            } else if (match && fill.faultedBlock && !fill.correctedError &&
                       !fill.detectedUncorrectable) {
                controller_->noteBenignFill(addr, fill.fillClass, now);
            }
        }

        if (fill.wasUncompressed)
            everUncompressed_.insert(addr / kBlockBytes * kBlockBytes);

        probed_ = false;
        CacheLineState *installed = nullptr;
        CacheEviction ev;
        {
            SpanRecorder::Scope s(spans_, SpanId::CacheInsert);
            ev = llc_.insert(addr, is_write, evictFilter_, &installed);
        }
        if (ev.valid && ev.state.dirty) {
            performWriteback(ev, now,
                             probed_ && probedAddr_ == ev.addr ? &probedData_
                                                               : nullptr);
        }
        if (installed != nullptr) {
            installed->wasUncompressed = fill.wasUncompressed;
            if (fill.aliasPinned) {
                installed->dirty = true;
                llc_.setAlias(*installed, true);
            }
        }
        return fill.complete;
    }

    void
    proactiveAliasCheck(Addr addr)
    {
        if (!cfg_.proactiveAliasCheck)
            return;
        if (llc_.findState(addr) == nullptr)
            return;
        bool reject = false;
        {
            const CacheBlock *block = nullptr;
            {
                SpanRecorder::Scope s(spans_, SpanId::Pool);
                block = &poolFor(addr).blockForRef(addr);
            }
            SpanRecorder::Scope s(spans_, SpanId::AliasCheck);
            reject = controller_->wouldAliasReject(*block);
        }
        if (reject)
            llc_.setAlias(addr, true);
    }

    void
    bump(Addr addr)
    {
        {
            SpanRecorder::Scope s(spans_, SpanId::Bump);
            poolFor(addr).bumpVersion(addr);
        }
        proactiveAliasCheck(addr);
    }

    void
    runEpoch(Core &core, const Epoch &epoch)
    {
        const auto compute = static_cast<Cycle>(
            static_cast<double>(epoch.instructions) / profile_.perfectIpc);
        const Cycle issue = core.clock;
        Cycle memory_done = issue;

        for (const TraceAccess &access : epoch.accesses) {
            bool hit = false;
            {
                SpanRecorder::Scope s(spans_, SpanId::CacheAccess);
                hit = llc_.access(access.addr, access.isWrite);
            }
            if (hit) {
                if (access.isWrite)
                    bump(access.addr);
                continue;
            }
            const Cycle done =
                handleMiss(access.addr, access.isWrite, issue);
            if (access.isWrite)
                bump(access.addr);
            memory_done = std::max(memory_done, done + cfg_.llc.latency);
        }

        core.clock = std::max(issue + compute, memory_done);
        core.instructions += epoch.instructions;
        ++core.epochsDone;
    }

    Cycle
    maxCoreClock() const
    {
        Cycle clock = 0;
        for (const Core &core : cores_)
            clock = std::max(clock, core.clock);
        return clock;
    }

    void
    drain(std::ofstream &trace, u64 epochs_done)
    {
        std::string snapshot;
        {
            SpanRecorder::Scope s(spans_, SpanId::StatsDrain);
            snapshot = statsRegistry_.drainEpochJson(epochs_done,
                                                     maxCoreClock());
        }
        ++snapshots_;
        snapshotBytes_ += snapshot.size() + 1;
        trace << snapshot << "\n";
    }

    void
    mergeLoop(std::ofstream &trace)
    {
        u64 epochsDone = 0;
        u64 epochsSinceSnapshot = 0;
        while (true) {
            Core *next = nullptr;
            for (Core &core : cores_) {
                if (core.epochsDone >= cfg_.epochsPerCore)
                    continue;
                if (next == nullptr || core.clock < next->clock)
                    next = &core;
            }
            if (next == nullptr)
                break;
            if (injector_) {
                SpanRecorder::Scope s(spans_, SpanId::InjectorAdvance);
                injector_->advanceTo(next->clock);
            }
            const Epoch *epoch = nullptr;
            {
                SpanRecorder::Scope s(spans_, nextSpan_);
                epoch = &next->gen->next();
            }
            runEpoch(*next, *epoch);
            ++epochsDone;
            const CacheStats &llc = llc_.stats();
            if (fillEpoch_ == cfg_.epochsPerCore &&
                llc.misses - llc.evictions >= fillLines_) {
                fillEpoch_ = (epochsDone + cores_.size() - 1) /
                             cores_.size();
                missesAtFill_ = missCount_;
            }
            if (trace.is_open() &&
                ++epochsSinceSnapshot >= cfg_.traceStatsEpochInterval) {
                drain(trace, epochsDone);
                epochsSinceSnapshot = 0;
            }
        }
        if (fillEpoch_ == cfg_.epochsPerCore)
            missesAtFill_ = missCount_;
        if (trace.is_open())
            drain(trace, epochsDone);
    }

    SystemResults
    collectResults()
    {
        SystemResults results;
        for (const Core &core : cores_) {
            results.instructions += core.instructions;
            results.cycles = std::max(results.cycles, core.clock);
        }
        results.ipc = results.cycles
                          ? static_cast<double>(results.instructions) /
                                static_cast<double>(results.cycles)
                          : 0.0;
        results.llcMisses = missCount_;
        results.writebacks = writebacks_;
        results.llc = llc_.stats();
        results.aliasPinEvents = llc_.stats().aliasPinned;
        results.dram = dram_.stats();
        results.mem = controller_->stats();
        results.mem.encodeCalls = encodeMemo_->lookups();
        results.mem.encodeMemoHits = encodeMemo_->hits();
        results.mem.schemeTrials = encodeMemo_->schemeTrials();
        results.vuln = controller_->vulnLog();
        results.errors = controller_->errorLog();
        results.adaptive = controller_->adaptiveStats();
        results.everUncompressedBlocks = everUncompressed_.size();
        results.touchedBlocks = controller_->imageBlockCount();
        for (const Core &core : cores_) {
            results.poolBlockForCalls += core.pool->blockForCalls();
            results.poolContentCacheHits += core.pool->contentCacheHits();
            results.poolContentCacheMisses +=
                core.pool->contentCacheMisses();
        }
        if (auto *coper =
                dynamic_cast<CopErController *>(controller_.get())) {
            results.eccRegionBytes = coper->storageBytesHighWater();
            results.eccRegionBytesNoDealloc =
                coper->storageBytesNoDealloc();
            results.everUncompressedBlocks =
                coper->everIncompressibleBlocks();
        }
        return results;
    }

    /** System::registerAllStats for a serial run, in the same order. */
    void
    registerAllStats()
    {
        StatsRegistry &reg = statsRegistry_;
        dram_.registerStats(reg);
        controller_->registerStats(reg);
        reg.gauge("codec.encode_calls",
                  [this] { return encodeMemo_->lookups(); });
        reg.gauge("codec.memo_hits", [this] { return encodeMemo_->hits(); });
        reg.gauge("codec.scheme_trials",
                  [this] { return encodeMemo_->schemeTrials(); });
        reg.gauge("llc.hits", [this] { return llc_.stats().hits; });
        reg.gauge("llc.misses", [this] { return llc_.stats().misses; });
        reg.gauge("sys.llc_misses", [this] { return missCount_; });
        reg.gauge("sys.writebacks", [this] { return writebacks_; });
        const auto sumCores = [this](u64 Core::*field) {
            u64 total = 0;
            for (const Core &core : cores_)
                total += core.*field;
            return total;
        };
        reg.gauge("sys.instructions",
                  [sumCores] { return sumCores(&Core::instructions); });
        reg.gauge("sys.epochs",
                  [sumCores] { return sumCores(&Core::epochsDone); });
        const auto sumPools = [this](u64 (BlockContentPool::*get)() const) {
            u64 total = 0;
            for (const Core &core : cores_)
                total += (core.pool->*get)();
            return total;
        };
        reg.gauge("pool.block_for_calls", [sumPools] {
            return sumPools(&BlockContentPool::blockForCalls);
        });
        reg.gauge("pool.content_cache_hits", [sumPools] {
            return sumPools(&BlockContentPool::contentCacheHits);
        });
        reg.gauge("pool.content_cache_misses", [sumPools] {
            return sumPools(&BlockContentPool::contentCacheMisses);
        });
        reg.gauge("pool.version_map_entries", [sumPools] {
            return sumPools(&BlockContentPool::versionMapEntries);
        });
        reg.gauge("pool.version_map_slots", [sumPools] {
            return sumPools(&BlockContentPool::versionMapSlots);
        });
        reg.gauge("pool.image_entries",
                  [this] { return controller_->imageBlockCount(); });
        reg.gauge("pool.image_slots",
                  [this] { return controller_->imageSlotCount(); });
        reg.gauge("ondie.injected",
                  [this] { return controller_->errorLog().ondieInjected; });
        reg.gauge("ondie.corrected",
                  [this] { return controller_->errorLog().ondieCorrected; });
        reg.gauge("ondie.miscorrected", [this] {
            return controller_->errorLog().ondieMiscorrected;
        });
        reg.gauge("ondie.forwarded",
                  [this] { return controller_->errorLog().ondieForwarded; });
        if (cfg_.epochSource) {
            const auto readCounters = [this] {
                ReplaySourceCounters total;
                for (const Core &core : cores_) {
                    ReplaySourceCounters one;
                    if (core.gen->replayCounters(one)) {
                        total.epochs += one.epochs;
                        total.accesses += one.accesses;
                    }
                }
                return total;
            };
            reg.gauge("trace.epochs_read",
                      [readCounters] { return readCounters().epochs; });
            reg.gauge("trace.accesses_read",
                      [readCounters] { return readCounters().accesses; });
            reg.gauge("trace.epochs_replayed",
                      [sumCores] { return sumCores(&Core::epochsDone); });
            reg.gauge("trace.accesses_replayed", [this] {
                return llc_.stats().hits + llc_.stats().misses;
            });
        }
        reg.gauge("adaptive.slots_reclaimed", [this] {
            return controller_->adaptiveStats().slotsReclaimed;
        });
        reg.gauge("adaptive.demotions",
                  [this] { return controller_->adaptiveStats().demotions; });
        reg.gauge("adaptive.victim_evictions", [this] {
            return controller_->adaptiveStats().victimEvictions;
        });
        reg.gauge("adaptive.released_blocks_hw", [this] {
            return controller_->adaptiveStats().releasedBlocksHighWater;
        });
    }

    const WorkloadProfile &profile_;
    SystemConfig cfg_;
    StatsRegistry statsRegistry_;
    DramSystem dram_;
    SetAssocCache llc_;
    std::unique_ptr<EncodeMemo> encodeMemo_;
    std::unique_ptr<MemoryController> controller_;
    std::unique_ptr<LiveInjector> injector_;
    std::vector<Core> cores_;
    FlatSet everUncompressed_;
    u64 writebacks_ = 0;
    u64 missCount_ = 0;
    SetAssocCache::EvictFilter evictFilter_;
    bool probed_ = false;
    Addr probedAddr_ = 0;
    CacheBlock probedData_;

    SpanRecorder spans_;
    SpanId nextSpan_ = SpanId::EpochNext;
    u64 fillLines_ = 0;
    u64 fillEpoch_ = 0;
    u64 missesAtFill_ = 0;
    u64 snapshots_ = 0;
    u64 snapshotBytes_ = 0;
    std::vector<CacheBlock> codecSamples_;
    std::vector<DramRequest> dramRequests_;
};

} // namespace

TracedRun
runTraced(const WorkloadProfile &profile, const SystemConfig &cfg,
          const std::string &stats_path)
{
    TracedSystem sys(profile, cfg);
    return sys.run(stats_path);
}

} // namespace cop::perfbench

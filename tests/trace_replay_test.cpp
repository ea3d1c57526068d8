/**
 * @file
 * The replay determinism contract (DESIGN.md §9): feeding a captured
 * trace back through TraceReplayGenerator under the profile that
 * captured it produces results JSON byte-identical to the synthetic
 * run that the capture recorded — for every controller kind and for
 * every trace encoding. Also covers the replay
 * conservation counters and the exhaustion guard.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "trace/gzip_source.hpp"
#include "trace/replay.hpp"
#include "trace/text_source.hpp"
#include "trace/trace_io.hpp"

namespace cop {
namespace {

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::Unprotected, ControllerKind::EccDimm,
    ControllerKind::EccRegion,   ControllerKind::Cop4,
    ControllerKind::Cop8,        ControllerKind::CopEr,
    ControllerKind::CopErNaive,
};

constexpr unsigned kCores = 2;
constexpr u64 kEpochs = 400;

SystemConfig
smallConfig(ControllerKind kind)
{
    SystemConfig cfg;
    cfg.cores = kCores;
    cfg.kind = kind;
    cfg.epochsPerCore = kEpochs;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34};
    cfg.verifyData = true;
    return cfg;
}

std::string
resultsJson(const SystemResults &r)
{
    std::string out;
    appendResultsJson(out, r);
    return out;
}

std::string
runJson(const WorkloadProfile &profile, SystemConfig cfg)
{
    System sys(profile, cfg);
    return resultsJson(sys.run());
}

/**
 * Capture per-core binary traces for @p profile under a unique
 * @p stem, returning the per-core paths.
 */
std::vector<std::string>
captureCores(const WorkloadProfile &profile, const std::string &stem)
{
    std::vector<std::string> paths;
    for (unsigned c = 0; c < kCores; ++c) {
        const std::string path = ::testing::TempDir() + stem + ".c" +
                                 std::to_string(c) + ".coptrc";
        std::ofstream out(path, std::ios::binary);
        EXPECT_TRUE(out.is_open());
        captureTrace(profile, c, kEpochs, out);
        paths.push_back(path);
    }
    return paths;
}

/** Sum every occurrence of `"key":<int>` in @p text. */
u64
sumOf(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    u64 total = 0;
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        total += std::strtoull(text.c_str() + pos, nullptr, 10);
    }
    return total;
}

TEST(TraceReplay, MatchesSyntheticRunForEveryScheme)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto paths = captureCores(profile, "replay_all_schemes");
    for (const ControllerKind kind : kAllKinds) {
        const SystemConfig cfg = smallConfig(kind);
        SystemConfig replay = cfg;
        replay.epochSource = makeTraceReplayFactory(profile, paths);
        EXPECT_EQ(runJson(profile, cfg), runJson(profile, replay))
            << controllerKindName(kind)
            << ": replay diverged from the synthetic run";
    }
}

TEST(TraceReplay, TextAndGzipReplaysMatchBinary)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto bin = captureCores(profile, "replay_encodings");

    std::vector<std::string> text;
    std::vector<std::string> gz;
    for (const std::string &path : bin) {
        const std::string text_path = path + ".txt";
        {
            const auto src = openTraceSource(path);
            std::ofstream out(text_path);
            writeTextTrace(*src, out);
        }
        text.push_back(text_path);
        if (gzipSupported()) {
            const std::string gz_path = path + ".gz";
            const auto src = openTraceSource(path);
            auto sink = std::make_unique<std::ofstream>(
                gz_path, std::ios::binary);
            {
                const auto out = makeGzipOstream(std::move(sink));
                TraceWriter writer(*out, src->declaredEpochs());
                Epoch epoch;
                while (src->next(epoch))
                    writer.write(epoch);
                writer.finish();
            }
            gz.push_back(gz_path);
        }
    }

    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.epochSource = makeTraceReplayFactory(profile, bin);
    const std::string reference = runJson(profile, cfg);

    cfg.epochSource = makeTraceReplayFactory(profile, text);
    EXPECT_EQ(reference, runJson(profile, cfg))
        << "text replay diverged from binary replay";
    if (gzipSupported()) {
        cfg.epochSource = makeTraceReplayFactory(profile, gz);
        EXPECT_EQ(reference, runJson(profile, cfg))
            << "gzip replay diverged from binary replay";
    }
}

TEST(TraceReplay, ConservationCountersBalance)
{
    // Every epoch and access the sources hand out must be consumed by
    // the simulation: trace.epochs_read == trace.epochs_replayed and
    // likewise for accesses, summed over the stats-trace snapshots.
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto paths = captureCores(profile, "replay_conservation");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.epochSource = makeTraceReplayFactory(profile, paths);
    cfg.traceStatsPath =
        ::testing::TempDir() + "replay_conservation.jsonl";
    cfg.traceStatsEpochInterval = 128;
    (void)runJson(profile, cfg);

    std::ifstream in(cfg.traceStatsPath);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    ASSERT_FALSE(trace.empty());
    const u64 epochs_read = sumOf(trace, "trace.epochs_read");
    const u64 epochs_replayed = sumOf(trace, "trace.epochs_replayed");
    const u64 accesses_read = sumOf(trace, "trace.accesses_read");
    const u64 accesses_replayed =
        sumOf(trace, "trace.accesses_replayed");
    EXPECT_EQ(epochs_read, kCores * kEpochs);
    EXPECT_EQ(epochs_read, epochs_replayed);
    EXPECT_GT(accesses_read, 0u);
    EXPECT_EQ(accesses_read, accesses_replayed);
}

TEST(TraceReplay, SyntheticRunHasNoTraceCounters)
{
    // The trace.* gauges only exist on replay runs; a synthetic run's
    // stats trace must not mention them (byte-identity with builds
    // that predate the ingestion subsystem).
    const auto &profile = WorkloadRegistry::byName("gcc");
    SystemConfig cfg = smallConfig(ControllerKind::Cop4);
    cfg.traceStatsPath =
        ::testing::TempDir() + "replay_no_counters.jsonl";
    cfg.traceStatsEpochInterval = 128;
    (void)runJson(profile, cfg);
    std::ifstream in(cfg.traceStatsPath);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str().find("trace."), std::string::npos);
}

TEST(TraceReplayDeath, ExhaustedTraceIsFatal)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto paths = captureCores(profile, "replay_exhausted");
    SystemConfig cfg = smallConfig(ControllerKind::Unprotected);
    cfg.epochsPerCore = kEpochs + 1; // one more than the trace holds
    cfg.epochSource = makeTraceReplayFactory(profile, paths);
    EXPECT_DEATH({ (void)runJson(profile, cfg); }, "trace exhausted");
}

TEST(TraceReplayDeath, MissingPerCoreTraceIsFatal)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto paths = captureCores(profile, "replay_missing_core");
    SystemConfig cfg = smallConfig(ControllerKind::Unprotected);
    cfg.cores = kCores + 1; // more cores than trace files
    cfg.epochSource = makeTraceReplayFactory(profile, paths);
    EXPECT_DEATH({ (void)runJson(profile, cfg); },
                 "one --trace-in per core");
}

TEST(TraceReplay, ReplayEpochCountReadsTheHeader)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    const auto paths = captureCores(profile, "replay_count");
    EXPECT_EQ(replayEpochCount(paths[0]), kEpochs);
}

} // namespace
} // namespace cop

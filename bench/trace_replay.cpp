/**
 * @file
 * Trace-replay grid: captures per-core traces of one benchmark, then
 * runs the same (scheme × source) cells from the synthetic generator
 * and from binary / text / gzip replays of the capture — and asserts
 * that every replay cell's results JSON is byte-identical to its
 * synthetic twin (DESIGN.md §9's determinism contract, exercised as a
 * bench so the ingestion smoke job gates on it).
 *
 * Usage: trace_replay [--profile NAME] [runner options]
 * Results land in bench/results/trace_replay.json; exit status is
 * non-zero when any replay diverges from its synthetic twin.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "run_util.hpp"
#include "trace/gzip_source.hpp"
#include "trace/replay.hpp"
#include "trace/text_source.hpp"
#include "trace/trace_io.hpp"

namespace cop {
namespace {

struct SchemeRow
{
    ControllerKind kind;
    const char *key;
};

constexpr SchemeRow kSchemes[] = {
    {ControllerKind::Cop4, "cop4"},
    {ControllerKind::CopEr, "coper"},
};

constexpr const char *kSources[] = {"bin", "text", "gz"};

std::filesystem::path
captureDir()
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "cop_trace_replay_bench";
    std::filesystem::create_directories(dir);
    return dir;
}

/** Capture one core's stream in all three encodings. */
void
captureAllFormats(const WorkloadProfile &profile, unsigned core,
                  u64 epochs, const std::filesystem::path &stem)
{
    {
        std::ofstream out(stem.string() + ".coptrc", std::ios::binary);
        if (!out)
            COP_FATAL("cannot write " + stem.string() + ".coptrc");
        captureTrace(profile, core, epochs, out);
    }
    {
        const auto src = openTraceSource(stem.string() + ".coptrc");
        std::ofstream out(stem.string() + ".txt");
        writeTextTrace(*src, out);
    }
    {
        const auto src = openTraceSource(stem.string() + ".coptrc");
        auto file = std::make_unique<std::ofstream>(
            stem.string() + ".coptrc.gz", std::ios::binary);
        const auto gz = makeGzipOstream(std::move(file));
        TraceWriter writer(*gz, src->declaredEpochs());
        Epoch epoch;
        while (src->next(epoch))
            writer.write(epoch);
        writer.finish();
    }
}

std::vector<std::string>
pathsFor(const std::filesystem::path &dir, const std::string &profile,
         unsigned cores, const char *source)
{
    const char *ext = std::strcmp(source, "text") == 0 ? ".txt"
                      : std::strcmp(source, "gz") == 0 ? ".coptrc.gz"
                                                       : ".coptrc";
    std::vector<std::string> paths;
    for (unsigned c = 0; c < cores; ++c) {
        paths.push_back(
            (dir / (profile + ".c" + std::to_string(c) + ext)).string());
    }
    return paths;
}

int
run(int argc, char **argv, const std::string &profile_name)
{
    const WorkloadProfile &profile =
        WorkloadRegistry::byName(profile_name);
    const u64 epochs = bench::benchEpochs(2000);
    const auto dir = captureDir();

    // Phase 1 (untimed setup): capture each core's stream once, in all
    // three encodings.
    SystemConfig base = bench::paperConfig(ControllerKind::Cop4);
    const unsigned cores = base.cores;
    for (unsigned c = 0; c < cores; ++c) {
        captureAllFormats(
            profile, c, epochs,
            dir / (profile.name + ".c" + std::to_string(c)));
    }

    // Phase 2: the grid — every scheme from the synthetic generator
    // and from each encoding of the captured streams.
    bench::GridRunner grid("trace_replay", argc, argv);
    for (const SchemeRow &scheme : kSchemes) {
        SystemConfig cfg = bench::paperConfig(scheme.kind);
        cfg.epochsPerCore = epochs;
        grid.add(profile, cfg, std::string(scheme.key) + "/synthetic");
        for (const char *source : kSources) {
            SystemConfig replay = cfg;
            replay.epochSource = makeTraceReplayFactory(
                profile, pathsFor(dir, profile.name, cores, source));
            grid.add(profile, replay,
                     std::string(scheme.key) + "/" + source);
        }
    }
    grid.run();

    // Phase 3: byte-identity verdicts.
    std::printf("%-10s %-6s %s\n", "scheme", "source", "verdict");
    unsigned mismatches = 0;
    for (const SchemeRow &scheme : kSchemes) {
        std::string synth;
        appendResultsJson(
            synth,
            grid.result(profile.name,
                        std::string(scheme.key) + "/synthetic"));
        for (const char *source : kSources) {
            std::string replay;
            appendResultsJson(
                replay,
                grid.result(profile.name,
                            std::string(scheme.key) + "/" + source));
            const bool match = replay == synth;
            mismatches += !match;
            std::printf("%-10s %-6s %s\n", scheme.key, source,
                        match ? "byte-identical" : "MISMATCH");
        }
    }
    grid.addScalar("replay_mismatches", static_cast<double>(mismatches));
    grid.writeJson();
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "trace_replay: %u replay cell(s) diverged from "
                     "their synthetic twin\n",
                     mismatches);
        return 1;
    }
    return 0;
}

} // namespace
} // namespace cop

int
main(int argc, char **argv)
{
    std::string profile = "mcf";
    // Strip --profile; everything else passes through to the runner.
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
            profile = argv[++i];
        } else {
            rest.push_back(argv[i]);
        }
    }
    return cop::run(static_cast<int>(rest.size()), rest.data(), profile);
}

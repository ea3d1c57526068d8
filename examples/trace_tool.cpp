/**
 * @file
 * Trace tool: capture synthetic workload traces to a file, summarise
 * and dump existing traces (any format), convert between the binary /
 * text / gzip encodings, and fit a workload profile to a trace — the
 * workflow glue for feeding captured traces into the stack.
 *
 * Usage:
 *   trace_tool capture <benchmark> <epochs> <file> [core]
 *                                   # record a trace (.gz path -> gzip;
 *                                   # [core] picks the per-core stream)
 *   trace_tool summary <file>                       # statistics
 *   trace_tool dump <file> [max-epochs]             # readable dump
 *   trace_tool convert <in> <out> <bin|text|gz>     # re-encode
 *   trace_tool fit <file> [max-epochs]              # profile estimate
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/parse.hpp"
#include "trace/fit.hpp"
#include "trace/gzip_source.hpp"
#include "trace/text_source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"

using namespace cop;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tool capture <benchmark> <epochs> <file> [core]\n"
                 "  trace_tool summary <file>\n"
                 "  trace_tool dump <file> [max-epochs]\n"
                 "  trace_tool convert <in> <out> <bin|text|gz>\n"
                 "  trace_tool fit <file> [max-epochs]\n");
    return 1;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int
doCapture(const char *bench, const char *epochs_str, const char *path,
          const char *core_str)
{
    const WorkloadProfile &profile = WorkloadRegistry::byName(bench);
    const u64 epochs = parsePositiveU64(epochs_str, "capture <epochs>");
    const unsigned core =
        core_str ? static_cast<unsigned>(
                       parseU64(core_str, "capture [core]"))
                 : 0;
    auto file = std::make_unique<std::ofstream>(path, std::ios::binary);
    if (!*file)
        COP_FATAL(std::string("cannot open ") + path);
    u64 written = 0;
    if (endsWith(path, ".gz")) {
        const auto out = makeGzipOstream(std::move(file));
        written = captureTrace(profile, core, epochs, *out);
    } else {
        written = captureTrace(profile, core, epochs, *file);
    }
    std::printf("captured %llu epochs of %s (core %u) to %s\n",
                static_cast<unsigned long long>(written), bench, core,
                path);
    return 0;
}

int
doSummary(const char *path)
{
    const auto src = openTraceSource(path);
    const TraceSummary s = summarizeTrace(*src);
    std::printf("format            : %s\n", src->formatName());
    std::printf("epochs            : %llu\n",
                static_cast<unsigned long long>(s.epochs));
    std::printf("instructions      : %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("L3 references     : %llu (%.2f per kilo-instruction)\n",
                static_cast<unsigned long long>(s.accesses),
                s.accessesPerKiloInstruction());
    std::printf("write fraction    : %.1f%%\n", 100 * s.writeFraction());
    std::printf("distinct blocks   : %llu (%.1f MB footprint)\n",
                static_cast<unsigned long long>(s.distinctBlocks),
                s.distinctBlocks * kBlockBytes / (1024.0 * 1024.0));
    std::printf("sequential pairs  : %llu (%.1f%% of references)\n",
                static_cast<unsigned long long>(s.sequentialPairs),
                s.accesses ? 100.0 * s.sequentialPairs / s.accesses : 0);
    return 0;
}

int
doDump(const char *path, const char *max_str)
{
    const u64 max_epochs =
        max_str ? parsePositiveU64(max_str, "dump [max-epochs]") : 10;
    const auto src = openTraceSource(path);
    Epoch epoch;
    while (src->epochsRead() < max_epochs && src->next(epoch)) {
        std::printf("epoch %llu: %llu instructions, %zu references\n",
                    static_cast<unsigned long long>(src->epochsRead()),
                    static_cast<unsigned long long>(epoch.instructions),
                    epoch.accesses.size());
        for (const TraceAccess &access : epoch.accesses) {
            std::printf("  %c 0x%012llx\n", access.isWrite ? 'W' : 'R',
                        static_cast<unsigned long long>(access.addr));
        }
    }
    return 0;
}

int
doConvert(const char *in_path, const char *out_path, const char *fmt_str)
{
    const TraceFormat to = parseTraceFormat(fmt_str);
    if (to == TraceFormat::Auto)
        COP_FATAL("convert needs an explicit output format (bin|text|gz)");
    const auto src = openTraceSource(in_path);
    auto file = std::make_unique<std::ofstream>(out_path, std::ios::binary);
    if (!*file)
        COP_FATAL(std::string("cannot open ") + out_path);

    u64 written = 0;
    if (to == TraceFormat::Text) {
        written = writeTextTrace(*src, *file);
        if (!*file)
            COP_FATAL("text trace write failed (disk full?)");
    } else {
        // The gzip deflater is unseekable, so the writer cannot
        // back-patch its header — carry the source's count across when
        // the source declares one (binary->gz keeps completeness
        // checkable; text sources fall back to read-to-EOF).
        std::unique_ptr<std::ostream> gz;
        std::ostream *out = file.get();
        if (to == TraceFormat::Gzip) {
            gz = makeGzipOstream(std::move(file));
            out = gz.get();
        }
        TraceWriter writer(*out, src->declaredEpochs());
        Epoch epoch;
        while (src->next(epoch))
            writer.write(epoch);
        writer.finish();
        written = writer.epochsWritten();
    }
    std::printf("converted %llu epochs: %s (%s) -> %s (%s)\n",
                static_cast<unsigned long long>(written), in_path,
                src->formatName(), out_path, fmt_str);
    return 0;
}

int
doFit(const char *path, const char *max_str)
{
    const auto src = openTraceSource(path);
    TraceFitOptions opts;
    if (max_str != nullptr)
        opts.maxEpochs = parsePositiveU64(max_str, "fit [max-epochs]");
    TraceFitReport report;
    const WorkloadProfile p =
        fitProfileFromTrace(*src, "fitted", opts, &report);
    std::printf("scanned           : %llu epochs, %llu accesses\n",
                static_cast<unsigned long long>(report.epochsScanned),
                static_cast<unsigned long long>(report.accessesScanned));
    std::printf("footprint         : %llu blocks (%.1f MB span)\n",
                static_cast<unsigned long long>(p.footprintBlocks),
                p.footprintBlocks * kBlockBytes / (1024.0 * 1024.0));
    std::printf("l3 APKI           : %.2f\n", p.l3Apki);
    std::printf("write fraction    : %.1f%%\n", 100 * p.writeFraction);
    std::printf("MLP               : %u (mean %.2f accesses/epoch)\n",
                p.mlp, report.meanAccessesPerEpoch);
    std::printf("stream fraction   : %.1f%%\n", 100 * p.streamFraction);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    if (std::strcmp(argv[1], "capture") == 0 && (argc == 5 || argc == 6))
        return doCapture(argv[2], argv[3], argv[4],
                         argc == 6 ? argv[5] : nullptr);
    if (std::strcmp(argv[1], "summary") == 0 && argc == 3)
        return doSummary(argv[2]);
    if (std::strcmp(argv[1], "dump") == 0 && (argc == 3 || argc == 4))
        return doDump(argv[2], argc == 4 ? argv[3] : nullptr);
    if (std::strcmp(argv[1], "convert") == 0 && argc == 5)
        return doConvert(argv[2], argv[3], argv[4]);
    if (std::strcmp(argv[1], "fit") == 0 && (argc == 3 || argc == 4))
        return doFit(argv[2], argc == 4 ? argv[3] : nullptr);
    return usage();
}

/**
 * @file
 * cop_perfbench: runs one benchmark workload and prints one JSON
 * object of raw measurements on stdout. perfbench/run.py builds it,
 * turns the measurements into metrics and checks them against the
 * pinned references.
 *
 *   cop_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 --work-dir DIR
 *
 * --trace 0 measures end-to-end host time with tracing off: set-up is
 * repeated (see kSetupReps), then whole workload passes repeat until S
 * seconds have gone. --trace 1 runs every System once through
 * System::run and once through the traced loop, and records spans,
 * layer counts and the codec/DRAM replays.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/parse.hpp"
#include "core/codec.hpp"
#include "sim/runner.hpp"
#include "traced_system.hpp"
#include "workloads.hpp"

using namespace cop;
using namespace cop::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Set-ups per --trace 0 run (setup_s is their median): at least
 * kSetupReps, enough to construct at least kSetupSystems Systems, and
 * enough to take kSetupSeconds in all, so the cheap set-ups of the
 * two-System workloads (a few ms each) are sampled more often.
 */
constexpr unsigned kSetupReps = 3;
constexpr size_t kSetupSystems = 30;
constexpr double kSetupSeconds = 1.0;
/** Codec replay: at least this many encodes and decodes are timed. */
constexpr u64 kCodecReplayOps = 1u << 16;
/**
 * No workload warms its LLC before timing: every System starts empty,
 * as in the figure benches, and the traced run reports when it fills.
 */
constexpr const char *kLlcStart = "empty";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- minimal JSON output ------------------------------------------------

std::string
jnum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jnum(u64 v)
{
    return std::to_string(static_cast<unsigned long long>(v));
}

std::string
jstr(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + jstr(key) + ":" + json;
        return *this;
    }
    JsonObject &num(const std::string &k, double v) { return raw(k, jnum(v)); }
    JsonObject &num(const std::string &k, u64 v) { return raw(k, jnum(v)); }
    JsonObject &str(const std::string &k, const std::string &v)
    {
        return raw(k, jstr(v));
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

template <typename T, typename F>
std::string
jarray(const std::vector<T> &items, F &&toJson)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + toJson(items[i]);
    return out + "]";
}

std::string
jdoubles(const std::vector<double> &v)
{
    return jarray(v, [](double x) { return jnum(x); });
}

// --- correctness fields -------------------------------------------------

/**
 * The fields a System's digest covers, read straight from
 * SystemResults (not from the results-JSON text, so a change of that
 * text's field order is not a mismatch).
 */
std::string
digestFields(const SystemResults &r)
{
    JsonObject o;
    o.num("ipc", r.ipc)
        .num("cycles", u64{r.cycles})
        .num("instructions", r.instructions)
        .num("llc_misses", r.llcMisses)
        .num("writebacks", r.writebacks)
        .num("dram_reads", r.dram.reads)
        .num("dram_writes", r.dram.writes)
        .num("dram_row_hits", r.dram.rowHits);
    const MemStats &m = r.mem;
    o.num("mem_reads", m.reads)
        .num("mem_writes", m.writes)
        .num("mem_protected_writes", m.protectedWrites)
        .num("mem_unprotected_writes", m.unprotectedWrites)
        .num("mem_alias_rejects", m.aliasRejects)
        .num("mem_meta_reads", m.metaReads)
        .num("mem_meta_writes", m.metaWrites)
        .num("mem_meta_cache_hits", m.metaCacheHits)
        .num("mem_meta_cache_misses", m.metaCacheMisses)
        .num("mem_encode_calls", m.encodeCalls)
        .num("mem_encode_memo_hits", m.encodeMemoHits)
        .num("mem_scheme_trials", m.schemeTrials);
    for (size_t i = 0; i < m.schemeWrites.size(); ++i)
        o.num("mem_scheme_writes_" + std::to_string(i), m.schemeWrites[i]);
    const ErrorLog &e = r.errors;
    o.num("err_fault_events", e.faultEvents)
        .num("err_bits_flipped", e.bitsFlipped)
        .num("err_cold_faults", e.coldFaults)
        .num("err_faults_on_retired_pages", e.faultsOnRetiredPages)
        .num("err_inject_skipped", e.injectSkipped)
        .num("err_ondie_injected", e.ondieInjected)
        .num("err_ondie_corrected", e.ondieCorrected)
        .num("err_ondie_miscorrected", e.ondieMiscorrected)
        .num("err_ondie_forwarded", e.ondieForwarded)
        .num("err_benign", e.benign)
        .num("err_corrected", e.corrected)
        .num("err_detected", e.detected)
        .num("err_silent", e.silent)
        .num("err_read_retries", e.readRetries)
        .num("err_retry_dram_reads", e.retryDramReads)
        .num("err_scrub_on_read_writes", e.scrubOnReadWrites)
        .num("err_recovery_rewrites", e.recoveryRewrites)
        .num("err_retired_pages", e.retiredPages)
        .num("err_scrubbed_blocks", e.scrubbedBlocks)
        .num("err_scrub_reads", e.scrubReads)
        .num("err_scrub_writes", e.scrubWrites)
        .num("err_scrub_corrected", e.scrubCorrected)
        .num("err_scrub_detected", e.scrubDetected)
        .num("err_dropped_events", e.droppedEvents);
    o.num("ecc_region_bytes", r.eccRegionBytes)
        .num("ecc_region_bytes_no_dealloc", r.eccRegionBytesNoDealloc);
    return o.json();
}

// --- host fingerprint ---------------------------------------------------

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
fingerprint(unsigned nproc)
{
    JsonObject o;
    o.num("nproc", u64{nproc})
        .str("cpu_model", cpuModel())
        .str("compiler", __VERSION__)
        .str("build_type", COP_PERFBENCH_BUILD_TYPE)
        .raw("optimized", kOptimized ? "true" : "false");
    return o.json();
}

u64
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<u64>(ru.ru_maxrss);
}

// --- options --------------------------------------------------------------

struct Options
{
    std::string workload;
    u64 seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false, haveWorkDir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            COP_FATAL("missing value for " + arg);
        const char *value = argv[++i];
        if (arg == "--workload") {
            opt.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = parseU64(value, "--seed");
        } else if (arg == "--seconds") {
            opt.seconds =
                static_cast<double>(parsePositiveU64(value, "--seconds"));
        } else if (arg == "--trace") {
            const u64 t = parseU64(value, "--trace");
            if (t > 1)
                COP_FATAL("--trace must be 0 or 1");
            opt.trace = t == 1;
        } else if (arg == "--work-dir") {
            opt.workDir = value;
            haveWorkDir = true;
        } else {
            COP_FATAL("unknown option " + arg);
        }
    }
    if (!haveWorkload || !haveWorkDir)
        COP_FATAL("--workload and --work-dir are required");
    return opt;
}

// --- --trace 0: end-to-end measurement -----------------------------------

struct Measurement
{
    std::vector<double> setupSeconds;
    std::vector<double> epochsPerSecond;
    /** Digest fields of the first pass, per System. */
    std::vector<std::string> fields;
    /** Later passes whose fields differed from the first, per System. */
    std::vector<u64> repMismatches;
    /** Serial-oracle fields (fast_timing only, untimed). */
    std::vector<std::string> oracleFields;
    std::vector<double> oracleIpc;
    std::vector<double> fastIpc;
};

/** One full set-up: profile lookup, trace capture, construction. */
double
timeSetup(const Options &opt, Workload &keep)
{
    const Clock::time_point t0 = Clock::now();
    Workload w = makeWorkload(opt.workload, opt.seed, opt.workDir);
    double seconds = secondsSince(t0);
    // Construction only; destruction is not set-up. Grid cells are
    // built one at a time (all 80 at once would need gigabytes).
    for (const SystemSpec &s : w.systems) {
        const Clock::time_point c0 = Clock::now();
        auto sys = std::make_unique<System>(s.profile, s.cfg);
        seconds += secondsSince(c0);
    }
    keep = std::move(w);
    return seconds;
}

std::string
measure(const Options &opt, unsigned nproc)
{
    Measurement m;
    Workload w;
    double setupTotal = 0;
    do {
        m.setupSeconds.push_back(timeSetup(opt, w));
        setupTotal += m.setupSeconds.back();
    } while (m.setupSeconds.size() < kSetupReps ||
             m.setupSeconds.size() * w.systems.size() < kSetupSystems ||
             setupTotal < kSetupSeconds);

    const size_t n = w.systems.size();
    if (w.kind == WorkloadKind::Fast) {
        // The divergence reference: untimed serial oracles.
        for (const SystemSpec &s : w.systems) {
            System sys(s.profile, serialOracle(s.cfg));
            const SystemResults r = sys.run();
            m.oracleFields.push_back(digestFields(r));
            m.oracleIpc.push_back(r.ipc);
        }
    }

    // Fast timing is checked by two fast passes agreeing.
    const unsigned minReps = w.kind == WorkloadKind::Fast ? 2 : 1;
    const Clock::time_point start = Clock::now();
    unsigned reps = 0;
    m.repMismatches.assign(n, 0);
    do {
        std::vector<SystemResults> results(n);
        double timed = 0;
        if (w.kind == WorkloadKind::Grid) {
            RunnerOptions ro;
            ro.jobs = nproc;
            const Clock::time_point t0 = Clock::now();
            runIndexed(
                n,
                [&](size_t i) {
                    System sys(w.systems[i].profile, w.systems[i].cfg);
                    results[i] = sys.run();
                },
                ro);
            timed = secondsSince(t0);
        } else {
            std::vector<std::unique_ptr<System>> systems;
            for (const SystemSpec &s : w.systems)
                systems.push_back(std::make_unique<System>(s.profile, s.cfg));
            for (size_t i = 0; i < n; ++i) {
                const Clock::time_point t0 = Clock::now();
                results[i] = systems[i]->run();
                timed += secondsSince(t0);
            }
        }
        m.epochsPerSecond.push_back(
            static_cast<double>(w.totalEpochs()) / timed);
        for (size_t i = 0; i < n; ++i) {
            const std::string f = digestFields(results[i]);
            if (reps == 0) {
                m.fields.push_back(f);
                if (w.kind == WorkloadKind::Fast)
                    m.fastIpc.push_back(results[i].ipc);
            } else if (f != m.fields[i]) {
                ++m.repMismatches[i];
            }
        }
        ++reps;
    } while (reps < minReps || secondsSince(start) < opt.seconds);

    std::vector<std::string> labels;
    for (const SystemSpec &s : w.systems)
        labels.push_back(s.label);
    JsonObject o;
    o.str("mode", "measure")
        .str("workload", w.name)
        .num("seed", opt.seed)
        .raw("fingerprint", fingerprint(nproc))
        .str("llc_start", kLlcStart)
        .num("jobs", u64{w.kind == WorkloadKind::Grid ? nproc : 1})
        .num("fast_shards",
             u64{w.kind == WorkloadKind::Fast ? kFastShards : 0})
        .num("epochs_per_pass", w.totalEpochs())
        .raw("labels", jarray(labels, jstr))
        .raw("setup_s", jdoubles(m.setupSeconds))
        .raw("epochs_per_s", jdoubles(m.epochsPerSecond))
        .raw("fields", jarray(m.fields, [](const std::string &f) {
                 return f;
             }))
        .raw("rep_mismatches",
             jarray(m.repMismatches, [](u64 v) { return jnum(v); }))
        .num("peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0);
    if (w.kind == WorkloadKind::Fast) {
        o.raw("oracle_fields",
              jarray(m.oracleFields, [](const std::string &f) { return f; }))
            .raw("oracle_ipc", jdoubles(m.oracleIpc))
            .raw("fast_ipc", jdoubles(m.fastIpc));
    }
    return o.json();
}

// --- --trace 1: per-layer run --------------------------------------------

/** Host time of CopCodec encode/decode over the sampled blocks. */
std::string
codecReplay(const std::vector<CacheBlock> &samples)
{
    JsonObject o;
    o.num("samples", u64{samples.size()});
    if (samples.empty())
        return o.num("encodes", u64{0}).num("encode_ns", 0.0)
            .num("decodes", u64{0}).num("decode_ns", 0.0).json();
    const CopCodec codec(CopConfig::fourByte());
    std::vector<CacheBlock> stored;
    for (const CacheBlock &b : samples)
        stored.push_back(codec.encode(b).stored);
    const u64 passes =
        std::max<u64>(1, (kCodecReplayOps + samples.size() - 1) /
                             samples.size());
    // The sink, printed below, keeps the timed calls from being elided.
    u64 sink = 0;
    Clock::time_point t0 = Clock::now();
    for (u64 p = 0; p < passes; ++p)
        for (const CacheBlock &b : samples)
            sink += static_cast<u64>(codec.encode(b).status);
    const double encodeS = secondsSince(t0);
    t0 = Clock::now();
    for (u64 p = 0; p < passes; ++p)
        for (const CacheBlock &s : stored)
            sink += codec.decode(s).data == s ? 1 : 0;
    const double decodeS = secondsSince(t0);
    const u64 ops = passes * samples.size();
    return o.num("encodes", ops)
        .num("encode_ns", encodeS * 1e9)
        .num("decodes", ops)
        .num("decode_ns", decodeS * 1e9)
        .num("sink", sink)
        .json();
}

/** Host time of the traced data requests on a fresh DramSystem. */
std::string
dramReplay(const DramConfig &cfg, const std::vector<DramRequest> &requests)
{
    DramSystem dram(cfg);
    const Clock::time_point t0 = Clock::now();
    for (const DramRequest &req : requests)
        dram.access(req);
    const double seconds = secondsSince(t0);
    JsonObject o;
    return o.num("requests", u64{requests.size()})
        .num("ns", seconds * 1e9)
        .num("row_hits", dram.stats().rowHits)
        .json();
}

std::string
spansJson(const std::array<SpanTotals, kSpanCount> &spans)
{
    JsonObject o;
    for (unsigned i = 0; i < kSpanCount; ++i) {
        const SpanTotals &t = spans[i];
        o.raw(spanName(static_cast<SpanId>(i)),
              "[" + jnum(t.inclusiveNs) + "," + jnum(t.childNs) + "," +
                  jnum(t.count) + "]");
    }
    return o.json();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Layer counts read at the boundary, from one System's results. */
JsonObject
layerCounts(const SystemResults &r, u64 epochs)
{
    JsonObject o;
    o.num("epochs", epochs)
        .num("misses", r.llcMisses)
        .num("hits", r.llc.hits)
        .num("evictions", r.llc.evictions)
        .num("dirty_evictions", r.llc.dirtyEvictions)
        .num("writebacks", r.writebacks)
        .num("pool_calls", r.poolBlockForCalls)
        .num("pool_hits", r.poolContentCacheHits)
        .num("dram_accesses", r.dram.reads + r.dram.writes)
        .num("encode_calls", r.mem.encodeCalls)
        .num("memo_hits", r.mem.encodeMemoHits)
        .num("recovery_reads",
             r.errors.retryDramReads + r.errors.scrubReads);
    return o;
}

/** One System run untraced: the counters the traced loop must match. */
struct Reference
{
    SystemResults results;
    double constructS = 0;
    double runS = 0;
};

Reference
runReference(const WorkloadProfile &profile, const SystemConfig &cfg)
{
    Reference ref;
    Clock::time_point t0 = Clock::now();
    System sys(profile, cfg);
    ref.constructS = secondsSince(t0);
    t0 = Clock::now();
    ref.results = sys.run();
    ref.runS = secondsSince(t0);
    return ref;
}

/**
 * One System through the traced loop, checked against its untraced
 * @p ref; for fast timing, @p ref is the serial oracle and the fast
 * runs follow. A replaying System is also checked against the
 * synthetic run its trace was captured from.
 */
std::string
traceOne(const SystemSpec &spec, bool fast, const Reference &ref)
{
    const SystemConfig serial = fast ? serialOracle(spec.cfg) : spec.cfg;
    const std::string statsPath = serial.traceStatsPath + ".traced";
    TracedRun tr = runTraced(spec.profile, serial, statsPath);

    const std::string refFields = digestFields(ref.results);
    const std::string tracedFields = digestFields(tr.results);
    JsonObject o =
        layerCounts(tr.results, serial.epochsPerCore * serial.cores);
    o.str("label", spec.label)
        .raw("reference_fields", refFields)
        .raw("counters_match", refFields == tracedFields ? "true" : "false")
        .num("construct_s", ref.constructS)
        .num("run_s", ref.runS)
        .num("traced_s", tr.wallSeconds)
        .raw("spans", spansJson(tr.spans))
        .num("fill_epoch", tr.fillEpoch)
        .num("misses_after_fill", tr.missesAfterFill)
        .num("snapshots", tr.snapshots)
        .num("snapshot_bytes", tr.snapshotBytes)
        .raw("codec", codecReplay(tr.codecSamples))
        .raw("dram_replay", dramReplay(serial.dram, tr.dramRequests));
    if (!serial.traceStatsPath.empty()) {
        o.raw("stats_trace_match",
              readFile(serial.traceStatsPath) == readFile(statsPath)
                  ? "true"
                  : "false");
    }
    if (spec.cfg.epochSource) {
        SystemConfig synthetic = spec.cfg;
        synthetic.epochSource = nullptr;
        const Reference syn = runReference(spec.profile, synthetic);
        o.raw("replay_matches_synthetic",
              digestFields(syn.results) == refFields ? "true" : "false");
    }
    if (fast) {
        // Two fast runs: they must agree, and the second (warm) one is
        // timed against the serial run.
        const Reference cold = runReference(spec.profile, spec.cfg);
        const Reference fr = runReference(spec.profile, spec.cfg);
        JsonObject f;
        f.num("construct_s", fr.constructS)
            .num("run_s", fr.runS)
            .num("barriers", fr.results.ftBarriers)
            .num("ipc", fr.results.ipc)
            .num("oracle_ipc", ref.results.ipc)
            .raw("runs_agree", digestFields(cold.results) ==
                                       digestFields(fr.results)
                                   ? "true"
                                   : "false");
        o.raw("fast", f.json());
    }
    return o.json();
}

std::string
traced(const Options &opt, unsigned nproc)
{
    const Workload w =
        makeWorkload(opt.workload, opt.seed, opt.workDir);
    const size_t n = w.systems.size();
    std::vector<std::string> systems(n);
    JsonObject o;
    o.str("mode", "trace")
        .str("workload", w.name)
        .num("seed", opt.seed)
        .raw("fingerprint", fingerprint(nproc))
        .str("llc_start", kLlcStart);
    if (w.kind == WorkloadKind::Grid) {
        // Untraced makespan first (the runner metrics), then every cell
        // traced under the same number of jobs.
        RunnerOptions ro;
        ro.jobs = nproc;
        std::vector<Reference> refs(n);
        std::vector<double> cellMs;
        const Clock::time_point t0 = Clock::now();
        runIndexed(
            n,
            [&](size_t i) {
                refs[i] = runReference(w.systems[i].profile,
                                       w.systems[i].cfg);
            },
            ro, &cellMs);
        const double makespan = secondsSince(t0);
        runIndexed(
            n,
            [&](size_t i) {
                systems[i] = traceOne(w.systems[i], false, refs[i]);
            },
            ro);
        std::vector<double> cellS;
        for (const double ms : cellMs)
            cellS.push_back(ms / 1e3);
        JsonObject runner;
        runner.num("jobs", u64{nproc})
            .num("makespan_s", makespan)
            .raw("cell_s", jdoubles(cellS));
        o.raw("runner", runner.json());
    } else {
        const bool fast = w.kind == WorkloadKind::Fast;
        for (size_t i = 0; i < n; ++i) {
            const SystemSpec &s = w.systems[i];
            systems[i] = traceOne(
                s, fast,
                runReference(s.profile,
                             fast ? serialOracle(s.cfg) : s.cfg));
        }
    }
    o.raw("systems", jarray(systems, [](const std::string &s) { return s; }));
    return o.json();
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin glibc's mmap threshold at its default: otherwise it grows as
    // large blocks are freed, later passes carve their hash maps out of
    // a fragmented heap, and the peak RSS depends on how many passes
    // fit in --seconds. Pinned, every pass allocates and returns its
    // large blocks like the first pass of a fresh process.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const Options opt = parseOptions(argc, argv);
    if (!kOptimized) {
        std::fprintf(stderr, "cop_perfbench: refusing to measure a build "
                             "without optimisation\n");
        return 2;
    }
    std::filesystem::create_directories(opt.workDir);
    unsigned nproc = std::thread::hardware_concurrency();
    if (nproc == 0)
        nproc = 1;
    // Grid cells run on nproc runner jobs.
    const std::string out =
        opt.trace ? traced(opt, nproc) : measure(opt, nproc);
    std::printf("%s\n", out.c_str());
    return 0;
}

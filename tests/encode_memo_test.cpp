/**
 * @file
 * The encode memo's one invariant: its presence, size, or hit pattern
 * must never change a simulated result — only how fast the codec gets
 * there. Unit tests pit memoized encodes against direct codec calls
 * block for block; the integration tests run whole Systems with the
 * memo on, off (counting-only), and tiny (collision-heavy), and demand
 * identical results — including under live fault injection.
 */

#include <gtest/gtest.h>

#include "core/encode_memo.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workloads/block_gen.hpp"

namespace cop {
namespace {

bool
sameEncode(const CopEncodeResult &a, const CopEncodeResult &b)
{
    return a.status == b.status && a.scheme == b.scheme &&
           a.stored == b.stored;
}

TEST(EncodeMemo, MemoizedResultsMatchDirectEncodes)
{
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(64);
    Rng rng(11);
    BlockGenParams params;
    for (int iter = 0; iter < 4000; ++iter) {
        const auto block = generateBlock(
            static_cast<BlockCategory>(rng.below(kBlockCategories)),
            params, rng);
        ASSERT_TRUE(sameEncode(memo.encode(codec, block),
                               codec.encode(block)));
    }
}

TEST(EncodeMemo, CollisionHeavyTinyMemoStaysCorrect)
{
    // One 4-way set: nearly every lookup evicts through the PLRU.
    // Correctness must come from the full-key compare, not hash luck.
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(2);
    EXPECT_EQ(memo.capacity(), 4u); // rounds up to one full set
    EXPECT_EQ(memo.conflictEvictions(), 0u);
    Rng rng(12);
    BlockGenParams params;
    for (int iter = 0; iter < 2000; ++iter) {
        const auto block = generateBlock(
            static_cast<BlockCategory>(rng.below(kBlockCategories)),
            params, rng);
        ASSERT_TRUE(sameEncode(memo.encode(codec, block),
                               codec.encode(block)));
    }
    EXPECT_GT(memo.conflictEvictions(), 0u); // the set really thrashed
}

TEST(EncodeMemo, CountsHitsAndRoundsCapacityUp)
{
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(100); // rounds up to 128
    EXPECT_EQ(memo.capacity(), 128u);

    const CacheBlock block{};
    memo.encode(codec, block);
    memo.encode(codec, block);
    memo.encode(codec, block);
    EXPECT_EQ(memo.lookups(), 3u);
    EXPECT_EQ(memo.hits(), 2u);
    // One real encode ran; the all-zero block is admitted by the first
    // scheme it tries.
    EXPECT_GE(memo.schemeTrials(), 1u);
}

TEST(EncodeMemo, OneSetCountersMatchHandTrace)
{
    // One 4-way set, so every block competes for the same ways. Blocks
    // A..E are distinct; E is incompressible random data, so the trial
    // counts differ per block.
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(4);
    ASSERT_EQ(memo.capacity(), 4u);
    std::vector<CacheBlock> blk(5);
    for (unsigned i = 0; i < 4; ++i)
        blk[i].setWord64(0, 0x1000 + i);
    Rng rng(5);
    for (unsigned w = 0; w < 8; ++w)
        blk[4].setWord64(w, rng.next());
    enum { A, B, C, D, E };

    // Tree-PLRU trace (common/plru.hpp), bits starting at 0:
    //  A B C D fill ways 0-3; A hits; E evicts C (way 2); A hits;
    //  C evicts D (way 3); D evicts B (way 1); B evicts E (way 2);
    //  A hits.
    const int seq[] = {A, B, C, D, A, E, A, C, D, B, A};
    for (const int b : seq) {
        ASSERT_TRUE(sameEncode(memo.encode(codec, blk[b]),
                               codec.encode(blk[b])));
    }
    EXPECT_EQ(memo.lookups(), 11u);
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.conflictEvictions(), 4u);
    const auto trials = [&](int b) {
        return codec.encode(blk[b]).schemeTrials;
    };
    EXPECT_EQ(memo.schemeTrials(), trials(A) + 2 * trials(B) +
                                       2 * trials(C) + 2 * trials(D) +
                                       trials(E));
    EXPECT_NE(trials(A), trials(E));
}

TEST(EncodeMemo, CountingOnlyModeNeverCaches)
{
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(0);
    EXPECT_EQ(memo.capacity(), 0u);
    const CacheBlock block{};
    ASSERT_TRUE(sameEncode(memo.encode(codec, block),
                           codec.encode(block)));
    memo.encode(codec, block);
    EXPECT_EQ(memo.lookups(), 2u);
    EXPECT_EQ(memo.hits(), 0u);
}

SystemConfig
memoConfig(ControllerKind kind, unsigned memo_entries, bool faults)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.kind = kind;
    cfg.epochsPerCore = 1200;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34};
    cfg.verifyData = true;
    cfg.encodeMemoEntries = memo_entries;
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.eventsPerMegacycle = 40.0;
        cfg.fault.flipsPerEvent = 1;
        cfg.fault.seed = 0xBEEF;
    }
    return cfg;
}

/**
 * Serialize results through the canonical JSON path, then blank the
 * codec perf counters: those legitimately differ across memo sizes
 * (a caching memo answers wouldAliasReject by encoding, a counting-only
 * one uses the cheaper compressible+isAlias test), but nothing else may.
 */
std::string
comparableJson(SystemResults r)
{
    r.mem.encodeCalls = 0;
    r.mem.encodeMemoHits = 0;
    r.mem.schemeTrials = 0;
    std::string out;
    appendResultsJson(out, r);
    return out;
}

class MemoInvariance
    : public ::testing::TestWithParam<std::tuple<ControllerKind, bool>>
{
};

TEST_P(MemoInvariance, ResultsIdenticalAcrossMemoSizes)
{
    const auto [kind, faults] = GetParam();
    const auto &profile = WorkloadRegistry::byName("gcc");

    auto runWith = [&](unsigned memo_entries) {
        System sys(profile, memoConfig(kind, memo_entries, faults));
        return comparableJson(sys.run());
    };
    const std::string off = runWith(0);
    const std::string tiny = runWith(4);
    const std::string big = runWith(1u << 13);
    EXPECT_EQ(off, big);
    EXPECT_EQ(off, tiny);
}

INSTANTIATE_TEST_SUITE_P(
    CopKinds, MemoInvariance,
    ::testing::Combine(::testing::Values(ControllerKind::Cop4,
                                         ControllerKind::Cop8,
                                         ControllerKind::CopEr,
                                         ControllerKind::CopErNaive),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ControllerKind, bool>>
           &info) {
        std::string name =
            controllerKindName(std::get<0>(info.param));
        std::erase_if(name, [](char c) { return !std::isalnum(c); });
        return name + (std::get<1>(info.param) ? "Faults" : "Clean");
    });

TEST(EncodeMemoSystem, CountersAccumulateOnCopRuns)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System sys(profile,
               memoConfig(ControllerKind::Cop4, 1u << 13, false));
    const SystemResults r = sys.run();
    EXPECT_GT(r.mem.encodeCalls, 0u);
    EXPECT_GT(r.mem.schemeTrials, 0u);
    EXPECT_LE(r.mem.encodeMemoHits, r.mem.encodeCalls);
}

TEST(EncodeMemoSystem, NonCopControllersReportZeroCounters)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System sys(profile,
               memoConfig(ControllerKind::EccDimm, 1u << 13, false));
    const SystemResults r = sys.run();
    EXPECT_EQ(r.mem.encodeCalls, 0u);
    EXPECT_EQ(r.mem.encodeMemoHits, 0u);
    EXPECT_EQ(r.mem.schemeTrials, 0u);
}

} // namespace
} // namespace cop

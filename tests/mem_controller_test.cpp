/**
 * @file
 * Tests for the memory-controller variants: read-your-writes through
 * the full encode/store/decode pipeline, metadata traffic accounting,
 * alias handling, COP-ER entry lifecycle, and vulnerability logging.
 */

#include <gtest/gtest.h>

#include "mem/coper_controller.hpp"
#include "mem/ecc_region_controller.hpp"
#include "test_blocks.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

/** Test fixture with a quiet DRAM and an mcf-like content pool. */
class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : profile(WorkloadRegistry::byName("mcf")), pool(profile)
    {
        DramConfig cfg;
        cfg.refreshEnabled = false;
        dram = std::make_unique<DramSystem>(cfg);
    }

    MemoryController::ContentSource
    source()
    {
        return [this](Addr a) -> const CacheBlock & {
            return pool.blockForRef(a);
        };
    }

    const WorkloadProfile &profile;
    BlockContentPool pool;
    std::unique_ptr<DramSystem> dram;
};

TEST_F(ControllerTest, UnprotectedReadYourWrites)
{
    UnprotectedController ctrl(*dram, source());
    const Addr addr = 7 * kBlockBytes;
    // First touch: initial content.
    EXPECT_EQ(ctrl.read(addr, 0).data, pool.blockFor(addr));
    // Write new content; read it back.
    pool.bumpVersion(addr);
    const CacheBlock updated = pool.blockFor(addr);
    ctrl.writeback(addr, updated, 1000, false);
    EXPECT_EQ(ctrl.read(addr, 2000).data, updated);
}

TEST_F(ControllerTest, CopReadYourWritesAcrossManyBlocks)
{
    CopController ctrl(*dram, source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 500 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        ASSERT_EQ(r.data, pool.blockFor(addr)) << "addr " << addr;
        now = r.complete;
        // Update and write back.
        pool.bumpVersion(addr);
        const CacheBlock updated = pool.blockFor(addr);
        const MemWriteResult w = ctrl.writeback(addr, updated, now, false);
        if (!w.aliasRejected) {
            const MemReadResult r2 = ctrl.read(addr, now + 100);
            ASSERT_EQ(r2.data, updated) << "addr " << addr;
        }
    }
    // mcf-like data is overwhelmingly compressible.
    const MemStats &s = ctrl.stats();
    EXPECT_GT(s.protectedWrites, s.unprotectedWrites * 5);
}

TEST_F(ControllerTest, CopAddsDecodeLatency)
{
    CopController cop(*dram, source(), CopConfig::fourByte(), 4);
    DramConfig quiet;
    quiet.refreshEnabled = false;
    DramSystem dram2(quiet);
    UnprotectedController plain(dram2, source());
    const Cycle cop_done = cop.read(0, 0).complete;
    const Cycle plain_done = plain.read(0, 0).complete;
    EXPECT_EQ(cop_done, plain_done + 4);
}

TEST_F(ControllerTest, CopMarksUncompressedFills)
{
    CopController ctrl(*dram, source());
    // Find an incompressible (random-category) block.
    for (Addr addr = 0; addr < 5000 * kBlockBytes; addr += kBlockBytes) {
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            const MemReadResult r = ctrl.read(addr, 0);
            if (!r.aliasPinned) {
                EXPECT_TRUE(r.wasUncompressed);
                return;
            }
        }
    }
    FAIL() << "no random block found in footprint";
}

TEST_F(ControllerTest, CopWouldAliasRejectMatchesEncoder)
{
    CopController ctrl(*dram, source());
    Rng rng(3);
    // Protected-image bits as application data: incompressible alias.
    std::array<u8, 60> payload{};
    for (auto &b : payload)
        b = static_cast<u8>(rng.next());
    const CacheBlock alias_block = ctrl.codec().protectPayload(payload);
    EXPECT_TRUE(ctrl.wouldAliasReject(alias_block));
    const MemWriteResult w = ctrl.writeback(99 * kBlockBytes, alias_block,
                                            0, false);
    EXPECT_TRUE(w.aliasRejected);
    EXPECT_EQ(ctrl.stats().aliasRejects, 1u);

    // Normal data must not be rejected.
    EXPECT_FALSE(ctrl.wouldAliasReject(pool.blockFor(0)));
}

TEST_F(ControllerTest, EccRegionChargesMetadataTraffic)
{
    EccRegionController ctrl(*dram, source(), 1 << 14);
    // Touch many widely-spread blocks: each 32-block group needs its
    // own ECC block, and the tiny metadata cache forces misses.
    Cycle now = 0;
    for (unsigned i = 0; i < 200; ++i) {
        const Addr addr = static_cast<Addr>(i) * 32 * kBlockBytes;
        now = ctrl.read(addr, now).complete;
    }
    EXPECT_GT(ctrl.stats().metaCacheMisses, 150u);
    EXPECT_GT(ctrl.stats().metaReads, 150u);
}

TEST_F(ControllerTest, EccRegionMetaCacheCapturesLocality)
{
    EccRegionController ctrl(*dram, source());
    // 32 consecutive blocks share one ECC block: 1 miss, 31 hits.
    Cycle now = 0;
    for (unsigned i = 0; i < 32; ++i)
        now = ctrl.read(i * kBlockBytes, now).complete;
    EXPECT_EQ(ctrl.stats().metaCacheMisses, 1u);
    EXPECT_EQ(ctrl.stats().metaCacheHits, 31u);
}

TEST_F(ControllerTest, EccRegionStorageIsTwoBytesPerBlock)
{
    EXPECT_EQ(EccRegionController::storageBytesFor(1000), 2000u);
}

// ---------------------------------------------------------------------
// COP-ER.
// ---------------------------------------------------------------------

TEST_F(ControllerTest, CopErReadYourWrites)
{
    CopErController ctrl(*dram, source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 500 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        ASSERT_EQ(r.data, pool.blockFor(addr)) << "addr " << addr;
        ASSERT_FALSE(r.aliasPinned); // COP-ER never pins
        now = r.complete + 10;
        pool.bumpVersion(addr);
        const CacheBlock updated = pool.blockFor(addr);
        const MemWriteResult w =
            ctrl.writeback(addr, updated, now, r.wasUncompressed);
        EXPECT_FALSE(w.aliasRejected);
        const MemReadResult r2 = ctrl.read(addr, now + 100);
        ASSERT_EQ(r2.data, updated) << "addr " << addr;
        now = r2.complete;
    }
}

TEST_F(ControllerTest, CopErAllocatesEntriesForIncompressibleOnly)
{
    CopErController ctrl(*dram, source());
    unsigned incompressible = 0;
    Cycle now = 0;
    for (Addr addr = 0; addr < 2000 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, now);
        incompressible += r.wasUncompressed;
        now = r.complete;
    }
    EXPECT_EQ(ctrl.region().validEntries(), incompressible);
    EXPECT_GT(incompressible, 0u);
}

TEST_F(ControllerTest, CopErFreesEntryWhenBlockBecomesCompressible)
{
    CopErController ctrl(*dram, source());
    // Find an incompressible block.
    Addr target = 0;
    bool found = false;
    for (Addr addr = 0; addr < 5000 * kBlockBytes; addr += kBlockBytes) {
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    const MemReadResult r = ctrl.read(target, 0);
    ASSERT_TRUE(r.wasUncompressed);
    EXPECT_EQ(ctrl.region().validEntries(), 1u);

    // Overwrite with compressible data: the entry must be freed.
    const CacheBlock zeros;
    ctrl.writeback(target, zeros, 1000, true);
    EXPECT_EQ(ctrl.region().validEntries(), 0u);
    EXPECT_EQ(ctrl.erStats().entryFrees, 1u);
    EXPECT_EQ(ctrl.read(target, 2000).data, zeros);
}

TEST_F(ControllerTest, CopErReusesEntryOnIncompressibleRewrite)
{
    CopErController ctrl(*dram, source());
    Addr target = 0;
    for (Addr addr = 0;; addr += kBlockBytes) {
        ASSERT_LT(addr, 5000 * kBlockBytes);
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            break;
        }
    }
    const MemReadResult r = ctrl.read(target, 0);
    ASSERT_TRUE(r.wasUncompressed);

    pool.bumpVersion(target); // still Random category => incompressible
    const CacheBlock updated = pool.blockFor(target);
    ctrl.writeback(target, updated, 1000, true);
    EXPECT_EQ(ctrl.erStats().entryReuses, 1u);
    EXPECT_EQ(ctrl.region().validEntries(), 1u);
    EXPECT_EQ(ctrl.read(target, 2000).data, updated);
}

TEST_F(ControllerTest, CopErUncompressedReadCostsEntryFetch)
{
    CopErController ctrl(*dram, source(), 4, 1 << 14);
    Addr target = 0;
    for (Addr addr = 0;; addr += kBlockBytes) {
        ASSERT_LT(addr, 5000 * kBlockBytes);
        if (pool.categoryOf(addr) == BlockCategory::Random) {
            target = addr;
            break;
        }
    }
    const MemReadResult r = ctrl.read(target, 0);
    EXPECT_TRUE(r.wasUncompressed);
    EXPECT_EQ(r.dramAccesses, 2u); // data + entry block
}

TEST_F(ControllerTest, VulnLogClassesMatchStorage)
{
    CopErController ctrl(*dram, source());
    Cycle now = 0;
    for (Addr addr = 0; addr < 1000 * kBlockBytes; addr += kBlockBytes)
        now = ctrl.read(addr, now).complete;
    const VulnLog &log = ctrl.vulnLog();
    EXPECT_GT(log.of(VulnClass::CopProtected4).reads, 0u);
    EXPECT_GT(log.of(VulnClass::CopErUncompressed).reads, 0u);
    EXPECT_EQ(log.of(VulnClass::Unprotected).reads, 0u);
    EXPECT_EQ(log.totalReads(), 1000u);
}

TEST_F(ControllerTest, VulnResidencyGrowsWithTime)
{
    UnprotectedController ctrl(*dram, source());
    ctrl.writeback(0, pool.blockFor(0), 1000, false);
    ctrl.read(0, 501000);
    const auto &entry = ctrl.vulnLog().of(VulnClass::Unprotected);
    EXPECT_EQ(entry.reads, 1u);
    EXPECT_DOUBLE_EQ(entry.totalCycles, 500000.0);
}

/** ECC DIMM whose writebacks can be made to report an alias rejection,
 *  reaching the recovery pipeline's drop-the-image edge. */
class RejectingEccDimm : public EccDimmController
{
  public:
    using EccDimmController::EccDimmController;

    MemWriteResult
    writeback(Addr addr, const CacheBlock &data, Cycle now,
              bool was_uncompressed) override
    {
        if (rejectWrites) {
            MemWriteResult r;
            r.aliasRejected = true;
            return r;
        }
        return EccDimmController::writeback(addr, data, now,
                                            was_uncompressed);
    }

    bool rejectWrites = false;
};

TEST_F(ControllerTest, VulnClockOutlivesAnImageDroppedByRecovery)
{
    RejectingEccDimm ctrl(*dram, source());
    ctrl.enableFaultInjection(RecoveryConfig{});
    const Addr addr = 3 * kBlockBytes;
    ctrl.writeback(addr, pool.blockFor(addr), 1000, false);
    // Two flips in one 64-bit word: SECDED detects but cannot correct.
    ASSERT_TRUE(ctrl.injectFault(addr, {0, 1}, 1500, false));
    ctrl.rejectWrites = true;
    EXPECT_TRUE(ctrl.read(addr, 2000).detectedUncorrectable);
    EXPECT_EQ(ctrl.imageOf(addr), nullptr) << "recovery keeps the image";

    // The refill re-creates the image; its exposure still counts from
    // the write at cycle 1000, not from the start of the run.
    ctrl.rejectWrites = false;
    ctrl.read(addr, 5000);
    const auto &entry = ctrl.vulnLog().of(VulnClass::EccDimm);
    EXPECT_EQ(entry.reads, 2u);
    EXPECT_DOUBLE_EQ(entry.totalCycles, (2000 - 1000) + (5000 - 1000));
}

} // namespace
} // namespace cop

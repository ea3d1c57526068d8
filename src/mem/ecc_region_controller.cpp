#include "mem/ecc_region_controller.hpp"

#include <algorithm>

#include "core/coper_codec.hpp"

namespace cop {

EccRegionController::EccRegionController(DramSystem &dram,
                                         ContentSource content,
                                         u64 meta_cache_bytes)
    : MemoryController(dram, std::move(content)), meta_(meta_cache_bytes)
{
}

Cycle
EccRegionController::metaAccess(Addr data_addr, Cycle now, bool dirty)
{
    const Addr meta_addr = memlayout::eccRegionEntryAddr(data_addr);
    const MetaCache::Access acc = meta_.access(meta_addr, dirty);
    if (acc.hit) {
        ++stats_.metaCacheHits;
        return now; // already on chip
    }
    ++stats_.metaCacheMisses;
    if (acc.evictedDirty) {
        ++stats_.metaWrites;
        dramWrite(acc.evictedAddr, now);
    }
    ++stats_.metaReads;
    return dramRead(meta_addr, now);
}

void
EccRegionController::enableAdaptiveCapacity()
{
    MemoryController::enableAdaptiveCapacity();
    if (!adaptComp_)
        adaptComp_ = std::make_unique<CombinedCompressor>(4);
}

bool
EccRegionController::groupReleased(Addr data_addr) const
{
    const auto it =
        groups_.find(memlayout::eccRegionEntryAddr(data_addr));
    return it != groups_.end() && it->second.released;
}

void
EccRegionController::noteBlockContent(Addr addr, const CacheBlock &data,
                                      Cycle now)
{
    const bool comp = adaptComp_->compressible(data);
    const Addr group_addr = memlayout::eccRegionEntryAddr(addr);
    GroupState &gs = groups_[group_addr];
    const auto it = blockCompressible_.find(addr);
    if (it == blockCompressible_.end()) {
        blockCompressible_.emplace(addr, comp ? u8{1} : u8{0});
        ++gs.touched;
        if (!comp)
            ++gs.incompressible;
    } else if ((it->second != 0) != comp) {
        it->second = comp ? 1 : 0;
        if (comp) {
            COP_ASSERT(gs.incompressible > 0);
            --gs.incompressible;
        } else {
            ++gs.incompressible;
        }
    }

    if (gs.released && gs.incompressible > 0) {
        // Demotion: the group needs its region block back. The data
        // victim living in the reclaimed slot is evicted through the
        // writeback machinery — one read out of the slot, one write to
        // its new home — before the entries can land.
        gs.released = false;
        noteDemotion();
        dramRead(group_addr, now);
        dramWrite(group_addr, now);
    } else if (!gs.released && gs.touched > 0 &&
               gs.incompressible == 0) {
        // Every touched block of the group is compressible: the check
        // bits ride inline in the compression slack, and the region
        // block joins the data free-list.
        gs.released = true;
        noteSlotReclaimed();
    }
}

u16 &
EccRegionController::wideCheck(Addr addr)
{
    auto it = check_.find(addr);
    if (it == check_.end()) {
        // Materialised before the first flip lands (flipStoredBit
        // materialises first), so this reflects the clean image.
        const CacheBlock *img = imageOf(addr);
        COP_ASSERT(img != nullptr);
        it = check_.emplace(addr, CoperCodec::wideCheck(*img)).first;
    }
    return it->second;
}

void
EccRegionController::flipStoredBit(Addr addr, unsigned bit)
{
    u16 &check = wideCheck(addr);
    if (bit < kBlockBits) {
        MemoryController::flipStoredBit(addr, bit);
        return;
    }
    COP_ASSERT(bit < kBlockBits + 11);
    check = static_cast<u16>(check ^ (1u << (bit - kBlockBits)));
}

MemReadResult
EccRegionController::readImpl(Addr addr, Cycle now)
{
    MemReadResult result;
    const BlockProbe probe = blocks_.probe(addr);
    const StoredBlock &rec =
        probe.found() ? blocks_.at(probe)
                      : insertImage(probe, initialContent(addr));
    // Adaptive mode classifies first-touch content before any timing
    // is charged (creating the image is functional-only, no DRAM
    // traffic).
    if (adaptiveMode_ && !probe.found())
        noteBlockContent(addr, rec.image, now);
    // Data and ECC reads are independent and overlap; the fill completes
    // when both are home and the wide code has been checked.
    const Cycle data_done = dramRead(addr, now);
    // A released group's check bits travel inline with the (compressed)
    // data, so the fill needs no metadata access at all.
    const Cycle meta_done = adaptiveMode_ && groupReleased(addr)
                                ? now
                                : metaAccess(addr, now, false);
    result.complete = std::max(data_done, meta_done);
    result.dramAccesses = 1 + (meta_done > now ? 1 : 0);
    const CacheBlock &img = rec.image;
    if (isFaulted(addr)) {
        CacheBlock data = img;
        const EccResult ecc = CoperCodec::wideDecode(data, wideCheck(addr));
        result.data = data;
        result.correctedError = ecc.corrected();
        result.detectedUncorrectable = ecc.uncorrectable();
    } else {
        result.data = img;
    }
    logVuln(VulnClass::WideCode, rec, now);
    return result;
}

MemWriteResult
EccRegionController::writeback(Addr addr, const CacheBlock &data,
                               Cycle now, bool was_uncompressed)
{
    (void)was_uncompressed;
    MemWriteResult result;
    // Reclassify before charging timing: a compressibility transition
    // may demote (reclaim + victim eviction) or release the group, and
    // the metadata decision below must see the post-transition state.
    if (adaptiveMode_)
        noteBlockContent(addr, data, now);
    result.complete = dramWrite(addr, now);
    // The entry's check bits are recomputed and merged into the cached
    // ECC block (read-modify-write; the fill is charged on a miss) —
    // unless the group is released, in which case they ship inline.
    if (!(adaptiveMode_ && groupReleased(addr)))
        metaAccess(addr, now, true);
    result.dramAccesses = 1;
    noteWrite(setImage(addr, data), now);
    return result;
}

} // namespace cop

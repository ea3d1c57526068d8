/**
 * @file
 * Cache model vs. a transparent reference implementation: thousands of
 * random access/insert/invalidate operations against a per-set
 * LRU-list oracle must agree on every hit/miss and every eviction,
 * including after a set has spilled and its spill list has emptied.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <set>

#include "cache/set_assoc_cache.hpp"
#include "common/rng.hpp"

namespace cop {
namespace {

/** Straightforward per-set LRU oracle. */
class ReferenceCache
{
  public:
    ReferenceCache(u64 sets, unsigned ways) : sets_(sets), ways_(ways) {}

    bool
    access(Addr addr, bool write)
    {
        auto &set = lists_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->addr == addr) {
                Entry e = *it;
                e.dirty |= write;
                set.erase(it);
                set.push_front(e); // MRU at front
                return true;
            }
        }
        return false;
    }

    /** Returns evicted (addr, dirty) or nullopt. */
    std::optional<std::pair<Addr, bool>>
    insert(Addr addr, bool dirty)
    {
        auto &set = lists_[setOf(addr)];
        std::optional<std::pair<Addr, bool>> evicted;
        if (set.size() == ways_) {
            evicted = {set.back().addr, set.back().dirty};
            set.pop_back();
        }
        set.push_front({addr, dirty});
        return evicted;
    }

    void
    invalidate(Addr addr)
    {
        auto &set = lists_[setOf(addr)];
        set.remove_if([&](const Entry &e) { return e.addr == addr; });
    }

    std::set<Addr>
    dirtyBlocks() const
    {
        std::set<Addr> dirty;
        for (const auto &[set, list] : lists_) {
            for (const Entry &e : list) {
                if (e.dirty)
                    dirty.insert(e.addr);
            }
        }
        return dirty;
    }

  private:
    struct Entry
    {
        Addr addr;
        bool dirty;
    };

    u64 setOf(Addr addr) const { return (addr / kBlockBytes) % sets_; }

    u64 sets_;
    unsigned ways_;
    std::map<u64, std::list<Entry>> lists_;
};

TEST(CacheReferenceModel, RandomOperationsAgree)
{
    const CacheConfig cfg{8 * 4 * kBlockBytes, 4, 1}; // 8 sets, 4 ways
    SetAssocCache cache(cfg);
    ReferenceCache reference(cfg.sets(), cfg.ways);
    Rng rng(2024);

    // A universe of 96 blocks over 8 sets keeps conflict pressure high.
    auto random_addr = [&] { return rng.below(96) * kBlockBytes; };

    for (int step = 0; step < 30000; ++step) {
        const Addr addr = random_addr();
        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 8) {
            const bool write = rng.chance(0.4);
            const bool hit_model = cache.access(addr, write);
            const bool hit_ref = reference.access(addr, write);
            ASSERT_EQ(hit_model, hit_ref) << "step " << step;
            if (!hit_model) {
                const CacheEviction ev = cache.insert(addr, write);
                const auto ref_ev = reference.insert(addr, write);
                ASSERT_EQ(ev.valid, ref_ev.has_value()) << "step " << step;
                if (ev.valid) {
                    ASSERT_EQ(ev.addr, ref_ev->first) << "step " << step;
                    ASSERT_EQ(ev.state.dirty, ref_ev->second)
                        << "step " << step;
                }
            }
        } else if (op < 9) {
            // Non-destructive probe: presence only, no LRU movement on
            // either side.
            const bool present_model = cache.probe(addr);
            // The oracle's presence check: peek without touching.
            const bool present_ref = [&] {
                ReferenceCache copy = reference;
                return copy.access(addr, false);
            }();
            ASSERT_EQ(present_model, present_ref) << "step " << step;
        } else {
            cache.invalidate(addr);
            reference.invalidate(addr);
        }
    }
}

TEST(CacheReferenceModel, AgreesAgainAfterTheSpillListEmpties)
{
    const CacheConfig cfg{4 * 2 * kBlockBytes, 2, 1}; // 4 sets, 2 ways
    SetAssocCache cache(cfg);
    const auto block = [](u64 set, u64 i) {
        return (i * 4 + set) * kBlockBytes;
    };

    // Pin both ways of set 1, then overflow it twice.
    const Addr pinned[] = {block(1, 0), block(1, 1)};
    for (const Addr a : pinned) {
        cache.insert(a, true);
        cache.setAlias(a, true);
    }
    const Addr spilled[] = {block(1, 2), block(1, 3)};
    for (const Addr a : spilled) {
        const CacheEviction ev = cache.insert(a, false);
        EXPECT_FALSE(ev.valid);
    }
    EXPECT_EQ(cache.stats().setOverflows, 2u);

    // Spill-list hits, one of them a store.
    EXPECT_TRUE(cache.access(spilled[0], true));
    EXPECT_TRUE(cache.access(spilled[1], false));
    EXPECT_EQ(cache.stats().spillHits, 2u);

    // Drop one spilled block: the other must still be found.
    cache.invalidate(spilled[0]);
    EXPECT_FALSE(cache.probe(spilled[0]));
    EXPECT_TRUE(cache.probe(spilled[1]));
    EXPECT_NE(cache.findState(spilled[1]), nullptr);
    EXPECT_TRUE(cache.access(spilled[1], true));
    EXPECT_EQ(cache.stats().spillHits, 3u);

    // Empty the spill list and the pinned ways: the cache is empty
    // again and must track the plain LRU oracle from here on.
    cache.invalidate(spilled[1]);
    for (const Addr a : pinned)
        cache.invalidate(a);
    EXPECT_EQ(cache.stats().aliasPinned, 0u);
    EXPECT_TRUE(cache.drainDirty().empty());

    ReferenceCache reference(cfg.sets(), cfg.ways);
    Rng rng(99);
    const u64 misses_before = cache.stats().misses;
    u64 misses = 0;
    for (int step = 0; step < 3000; ++step) {
        const Addr addr = rng.below(20) * kBlockBytes;
        const bool write = rng.chance(0.3);
        const bool hit = cache.access(addr, write);
        ASSERT_EQ(hit, reference.access(addr, write)) << "step " << step;
        if (hit)
            continue;
        ++misses;
        const CacheEviction ev = cache.insert(addr, write);
        const auto ref_ev = reference.insert(addr, write);
        ASSERT_EQ(ev.valid, ref_ev.has_value()) << "step " << step;
        if (ev.valid) {
            ASSERT_EQ(ev.addr, ref_ev->first) << "step " << step;
            ASSERT_EQ(ev.state.dirty, ref_ev->second) << "step " << step;
        }
    }
    EXPECT_EQ(cache.stats().misses - misses_before, misses);
    EXPECT_EQ(cache.stats().spillHits, 3u);

    std::set<Addr> drained;
    for (const CacheEviction &ev : cache.drainDirty())
        drained.insert(ev.addr);
    EXPECT_EQ(drained, reference.dirtyBlocks());
    EXPECT_TRUE(cache.drainDirty().empty());
}

TEST(CacheReferenceModel, DrainMatchesDirtySet)
{
    const CacheConfig cfg{4 * 2 * kBlockBytes, 2, 1};
    SetAssocCache cache(cfg);
    Rng rng(7);
    std::map<Addr, bool> resident_dirty;

    for (int step = 0; step < 2000; ++step) {
        const Addr addr = rng.below(24) * kBlockBytes;
        const bool write = rng.chance(0.5);
        if (cache.access(addr, write)) {
            resident_dirty[addr] = resident_dirty[addr] || write;
        } else {
            const CacheEviction ev = cache.insert(addr, write);
            if (ev.valid)
                resident_dirty.erase(ev.addr);
            resident_dirty[addr] = write;
        }
    }

    std::map<Addr, bool> drained;
    for (const auto &ev : cache.drainDirty())
        drained[ev.addr] = true;
    for (const auto &[addr, dirty] : resident_dirty) {
        ASSERT_EQ(drained.count(addr) > 0, dirty)
            << "addr " << addr;
    }
}

} // namespace
} // namespace cop

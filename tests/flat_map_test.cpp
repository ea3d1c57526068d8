/**
 * @file
 * Randomized equivalence tests for the open-addressing FlatMap/FlatSet
 * against std::unordered_map/std::unordered_set: same operation
 * sequence, same observable contents. Exercises backward-shift deletion
 * under heavy collision chains, rehash growth, and non-trivial value
 * types (CacheBlock, std::vector). The layout tests pin the slot order
 * against a plain linear-probing model: the control bytes must not move
 * any entry.
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cache_block.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace cop {
namespace {

/** Draw keys the simulator actually uses: block-aligned addresses from
 *  a small (collision-heavy) domain plus far-away metadata spaces. */
u64
drawKey(Rng &rng)
{
    const u64 r = rng.below(3);
    if (r == 0)
        return rng.below(512) * 64;
    if (r == 1)
        return (1ULL << 40) + rng.below(256) * 64;
    return rng.next();
}

TEST(FlatMap, RandomizedEquivalenceWithUnorderedMap)
{
    Rng rng(0xF1A7);
    FlatMap<u64> flat;
    std::unordered_map<u64, u64> ref;

    for (unsigned op = 0; op < 50000; ++op) {
        const u64 key = drawKey(rng);
        switch (rng.below(5)) {
          case 0:
          case 1: { // emplace
            const u64 val = rng.next();
            const auto [fit, finserted] = flat.emplace(key, val);
            const auto [rit, rinserted] = ref.emplace(key, val);
            EXPECT_EQ(finserted, rinserted);
            EXPECT_EQ(fit->second, rit->second);
            break;
          }
          case 2: { // operator[]
            const u64 val = rng.next();
            flat[key] = val;
            ref[key] = val;
            break;
          }
          case 3: // erase
            EXPECT_EQ(flat.erase(key), ref.erase(key));
            break;
          default: { // lookup
            EXPECT_EQ(flat.count(key), ref.count(key));
            const auto fit = flat.find(key);
            const auto rit = ref.find(key);
            ASSERT_EQ(fit == flat.end(), rit == ref.end());
            if (rit != ref.end()) {
                EXPECT_EQ(fit->second, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content equivalence, both directions.
    u64 iterated = 0;
    for (const auto &[key, val] : flat) {
        const auto rit = ref.find(key);
        ASSERT_NE(rit, ref.end()) << key;
        EXPECT_EQ(val, rit->second);
        ++iterated;
    }
    EXPECT_EQ(iterated, ref.size());
    for (const auto &[key, val] : ref)
        EXPECT_EQ(flat.find(key)->second, val);
}

TEST(FlatSet, RandomizedEquivalenceWithUnorderedSet)
{
    Rng rng(0x5E7);
    FlatSet flat;
    std::unordered_set<u64> ref;

    for (unsigned op = 0; op < 30000; ++op) {
        const u64 key = drawKey(rng);
        if (rng.chance(0.3)) {
            EXPECT_EQ(flat.erase(key), ref.erase(key));
        } else {
            EXPECT_EQ(flat.insert(key), ref.insert(key).second);
        }
        EXPECT_EQ(flat.count(key), ref.count(key));
        ASSERT_EQ(flat.size(), ref.size());
    }
    for (const u64 key : ref)
        EXPECT_EQ(flat.count(key), 1u);
}

TEST(FlatMap, BackwardShiftEraseKeepsDenseChainsIntact)
{
    // Dense consecutive small keys probe into long collision chains
    // after mixing; deleting every other key forces the backward-shift
    // path to repair chains rather than leave tombstones.
    FlatMap<u64> flat;
    constexpr u64 kN = 4096;
    for (u64 k = 0; k < kN; ++k)
        flat.emplace(k, k * 3);
    for (u64 k = 0; k < kN; k += 2)
        EXPECT_EQ(flat.erase(k), 1u);
    EXPECT_EQ(flat.size(), kN / 2);
    for (u64 k = 0; k < kN; ++k) {
        if (k % 2 == 0) {
            EXPECT_EQ(flat.count(k), 0u) << k;
        } else {
            ASSERT_EQ(flat.count(k), 1u) << k;
            EXPECT_EQ(flat.find(k)->second, k * 3);
        }
    }
    // Erased keys can be reinserted afterwards.
    for (u64 k = 0; k < kN; k += 2)
        flat.emplace(k, k + 1);
    EXPECT_EQ(flat.size(), kN);
    EXPECT_EQ(flat.find(10)->second, 11u);
    EXPECT_EQ(flat.find(11)->second, 33u);
}

TEST(FlatMap, ReserveAvoidsRehashAndGrowthIsAutomatic)
{
    FlatMap<u64> flat;
    flat.reserve(10000);
    const u64 cap = flat.capacity();
    EXPECT_GE(cap, 10000u);
    for (u64 k = 0; k < 10000; ++k)
        flat.emplace(k * 64, k);
    EXPECT_EQ(flat.capacity(), cap) << "reserve() must pre-size";

    FlatMap<u64> growing;
    for (u64 k = 0; k < 10000; ++k)
        growing.emplace(k * 64, k);
    EXPECT_EQ(growing.size(), 10000u);
    for (u64 k = 0; k < 10000; ++k)
        ASSERT_EQ(growing.find(k * 64)->second, k);
}

TEST(FlatMap, CacheBlockValuesSurviveRehash)
{
    FlatMap<CacheBlock> flat;
    for (u64 k = 0; k < 300; ++k) {
        CacheBlock b;
        b.setWord64(0, k ^ 0xDEADBEEFULL);
        b.setByte(63, static_cast<u8>(k));
        flat.emplace(k * 64, b);
    }
    for (u64 k = 0; k < 300; ++k) {
        const auto it = flat.find(k * 64);
        ASSERT_NE(it, flat.end());
        EXPECT_EQ(it->second.word64(0), k ^ 0xDEADBEEFULL);
        EXPECT_EQ(it->second.byte(63), static_cast<u8>(k));
    }
}

TEST(FlatMap, VectorValuesAndEmplaceSkipsConstructionWhenPresent)
{
    FlatMap<std::vector<unsigned>> flat;
    flat.emplace(7, std::vector<unsigned>{1, 2, 3});
    // Second emplace with a different payload must not overwrite.
    const auto [it, inserted] =
        flat.emplace(7, std::vector<unsigned>{9, 9});
    EXPECT_FALSE(inserted);
    EXPECT_EQ(it->second, (std::vector<unsigned>{1, 2, 3}));
    flat[7].push_back(4);
    EXPECT_EQ(flat.find(7)->second.back(), 4u);
    flat[8]; // operator[] default-constructs
    EXPECT_TRUE(flat.find(8)->second.empty());
    EXPECT_EQ(flat.size(), 2u);
}

/**
 * Plain linear-probing table with the layout FlatMap promises: home
 * slot = splitmix64(key) & mask, linear probe, growth to double the
 * capacity whenever an emplace starts at 7/8 load (present key or not),
 * rehash in old slot order. Erase re-inserts the rest of the cluster,
 * which must leave the same layout as FlatMap's backward shift.
 */
class ReferenceTable
{
  public:
    void
    emplace(u64 key)
    {
        if (slots_.empty())
            rehash(16);
        else if (size_ + 1 > slots_.size() - slots_.size() / 8)
            rehash(slots_.size() * 2);
        if (find(key))
            return;
        place(key);
        ++size_;
    }

    void
    erase(u64 key)
    {
        const std::optional<size_t> pos =
            slots_.empty() ? std::nullopt : find(key);
        if (!pos)
            return;
        slots_[*pos].reset();
        --size_;
        std::vector<u64> rest;
        for (size_t i = next(*pos); slots_[i]; i = next(i)) {
            rest.push_back(*slots_[i]);
            slots_[i].reset();
        }
        for (const u64 k : rest)
            place(k);
    }

    std::vector<u64>
    order() const
    {
        std::vector<u64> keys;
        for (const auto &slot : slots_) {
            if (slot)
                keys.push_back(*slot);
        }
        return keys;
    }

    size_t capacity() const { return slots_.size(); }

  private:
    size_t next(size_t i) const { return (i + 1) % slots_.size(); }

    size_t
    home(u64 key) const
    {
        return static_cast<size_t>(detail::flatHash(key) %
                                   slots_.size());
    }

    std::optional<size_t>
    find(u64 key) const
    {
        for (size_t i = home(key); slots_[i]; i = next(i)) {
            if (*slots_[i] == key)
                return i;
        }
        return std::nullopt;
    }

    void
    place(u64 key)
    {
        size_t i = home(key);
        while (slots_[i])
            i = next(i);
        slots_[i] = key;
    }

    void
    rehash(size_t capacity)
    {
        const std::vector<std::optional<u64>> old = std::move(slots_);
        slots_.assign(capacity, std::nullopt);
        for (const auto &slot : old) {
            if (slot)
                place(*slot);
        }
    }

    std::vector<std::optional<u64>> slots_;
    size_t size_ = 0;
};

std::vector<u64>
iterationOrder(const FlatMap<u64> &flat)
{
    std::vector<u64> keys;
    for (const auto &[key, val] : flat)
        keys.push_back(key);
    return keys;
}

TEST(FlatMapLayout, IterationOrderMatchesLinearProbingModel)
{
    Rng rng(0x1A70);
    FlatMap<u64> flat;
    ReferenceTable ref;
    for (unsigned op = 0; op < 20000; ++op) {
        const u64 key = drawKey(rng);
        if (rng.chance(0.35)) {
            flat.erase(key);
            ref.erase(key);
        } else {
            flat.emplace(key, key ^ 1);
            ref.emplace(key);
        }
        if (op % 64 == 0 || op + 1 == 20000) {
            ASSERT_EQ(flat.capacity(), ref.capacity()) << "op " << op;
            ASSERT_EQ(iterationOrder(flat), ref.order()) << "op " << op;
        }
    }
    EXPECT_GT(flat.size(), 100u);
}

/** Keys whose splitmix64 hash has top 7 bits @p frag and, in a
 *  16-slot table, home slot @p home. */
std::vector<u64>
keysWith(u64 frag, size_t home, unsigned n, u64 start = 0)
{
    std::vector<u64> keys;
    for (u64 k = start; keys.size() < n; ++k) {
        const u64 h = detail::flatHash(k);
        if ((h >> 57) == frag && (h & 15) == home)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatMapLayout, CollidingHashFragmentsStillCompareKeys)
{
    // Eight keys sharing both the 7-bit control fragment and the home
    // slot: every probe step matches the fragment, so only the key
    // compare can tell them apart.
    const std::vector<u64> keys = keysWith(0x2A, 3, 9);
    const u64 absent = keys.back();
    FlatMap<u64> flat;
    ReferenceTable ref;
    for (unsigned i = 0; i + 1 < keys.size(); ++i) {
        flat.emplace(keys[i], i);
        ref.emplace(keys[i]);
    }
    ASSERT_EQ(flat.capacity(), 16u);
    for (unsigned i = 0; i + 1 < keys.size(); ++i)
        EXPECT_EQ(flat.find(keys[i])->second, i);
    EXPECT_EQ(flat.count(absent), 0u);
    EXPECT_FALSE(flat.probe(absent).found());

    // Erase from the middle of the chain; the survivors stay reachable
    // and in the model's slot order.
    for (const unsigned i : {2u, 5u, 0u}) {
        EXPECT_EQ(flat.erase(keys[i]), 1u);
        ref.erase(keys[i]);
        EXPECT_EQ(flat.count(keys[i]), 0u);
    }
    EXPECT_EQ(iterationOrder(flat), ref.order());
    for (const unsigned i : {1u, 3u, 4u, 6u, 7u})
        EXPECT_EQ(flat.find(keys[i])->second, i);

    // probe() + insert() lands where emplace would have.
    const auto p = flat.probe(absent);
    ASSERT_FALSE(p.found());
    flat.insert(p, 99u);
    ref.emplace(absent);
    EXPECT_EQ(flat.find(absent)->second, 99u);
    EXPECT_EQ(iterationOrder(flat), ref.order());
}

TEST(FlatMapLayout, BackwardShiftEraseWrapsAroundTheSlotArray)
{
    // In a 16-slot table: k15a -> slot 15, k15b wraps to slot 0, k0 is
    // displaced to slot 1, k15c to slot 2. Erasing k15a must pull each
    // of them one slot back across the wrap.
    const u64 k15a = keysWith(0x11, 15, 1)[0];
    const u64 k15b = keysWith(0x22, 15, 1)[0];
    const u64 k0 = keysWith(0x33, 0, 1)[0];
    const u64 k15c = keysWith(0x44, 15, 1)[0];
    FlatMap<u64> flat;
    for (const u64 k : {k15a, k15b, k0, k15c})
        flat.emplace(k, k);
    ASSERT_EQ(flat.capacity(), 16u);
    EXPECT_EQ(iterationOrder(flat), (std::vector<u64>{k15b, k0, k15c, k15a}));

    EXPECT_EQ(flat.erase(k15a), 1u);
    EXPECT_EQ(iterationOrder(flat), (std::vector<u64>{k0, k15c, k15b}));
    for (const u64 k : {k15b, k0, k15c})
        EXPECT_EQ(flat.find(k)->second, k);
    EXPECT_EQ(flat.count(k15a), 0u);
}

TEST(FlatMap, ClearResetsToEmpty)
{
    FlatMap<u64> flat;
    for (u64 k = 0; k < 100; ++k)
        flat.emplace(k, k);
    flat.clear();
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.count(5), 0u);
    EXPECT_EQ(flat.begin(), flat.end());
    flat.emplace(5, 50);
    EXPECT_EQ(flat.find(5)->second, 50u);
}

} // namespace
} // namespace cop

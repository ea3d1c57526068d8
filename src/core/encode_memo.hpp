/**
 * @file
 * EncodeMemo: a content-keyed cache of CopCodec::encode results, plus
 * the codec perf counters (encode calls, memo hits, scheme trials).
 *
 * Why this cannot change simulated behaviour: encode is a pure function
 * of the 64 block bytes and the (immutable) codec configuration — the
 * codec holds no mutable state, the static hash is a constant, and the
 * encoder never looks at the address or the clock. The memo is 4-way
 * set-associative on a hash of the content (tree pseudo-LRU per set,
 * common/plru.hpp — the original direct-mapped table thrashed when two
 * hot contents hashed to one slot) but keyed on the FULL 64-byte
 * block: a way only answers when its stored key compares equal, so a
 * hash collision evicts rather than corrupts. See DESIGN.md. Each set
 * starts with a header holding the four ways' content hashes, so a
 * lookup compares 64-byte keys only in a way whose hash matches (equal
 * keys always have equal hashes, so the filter never changes an
 * answer).
 *
 * One memo per System (never shared across threads), so grid runs
 * stay deterministic at every worker count.
 */

#ifndef COP_CORE_ENCODE_MEMO_HPP
#define COP_CORE_ENCODE_MEMO_HPP

#include "common/plru.hpp"
#include "common/zero_pages.hpp"
#include "core/codec.hpp"

namespace cop {

/** Content-keyed 4-way set-associative cache of encode results. */
class EncodeMemo
{
  public:
    static constexpr unsigned kWays = 4;

    /**
     * @param entries Total capacity; sets = entries / kWays, rounded up
     *        to a power of two. 0 makes the memo counting-only: every
     *        encode runs the codec, but the perf counters still
     *        accumulate.
     */
    explicit EncodeMemo(unsigned entries)
    {
        if (entries > 0) {
            unsigned sets = 1;
            while (sets * kWays < entries)
                sets <<= 1;
            sets_ = ZeroedArray<Set>(sets);
            mask_ = sets - 1;
        }
    }

    /**
     * Encode @p data through @p codec, serving repeats of identical
     * content from the cache. The returned reference is invalidated by
     * the next encode() call.
     */
    const CopEncodeResult &
    encode(const CopCodec &codec, const CacheBlock &data)
    {
        ++lookups_;
        if (sets_.empty()) {
            scratch_ = codec.encode(data);
            schemeTrials_ += scratch_.schemeTrials;
            return scratch_;
        }
        const u64 hash = contentHash(data);
        Set &set = sets_[hash & mask_];
        unsigned way = kWays;
        for (unsigned w = 0; w < kWays; ++w) {
            if ((set.valid >> w & 1) == 0) {
                if (way == kWays)
                    way = w;
            } else if (set.hashes[w] == hash && set.ways[w].key == data) {
                ++hits_;
                set.plru.touch(w);
                return set.ways[w].result;
            }
        }
        if (way == kWays) {
            way = set.plru.victim();
            ++conflictEvictions_;
        }
        Entry &e = set.ways[way];
        set.hashes[way] = hash;
        set.valid |= static_cast<u8>(1u << way);
        e.key = data;
        e.result = codec.encode(data);
        schemeTrials_ += e.result.schemeTrials;
        set.plru.touch(way);
        return e.result;
    }

    /** Total entry capacity (0 = counting-only). */
    unsigned capacity() const
    {
        return static_cast<unsigned>(sets_.size()) * kWays;
    }

    u64 lookups() const { return lookups_; }
    u64 hits() const { return hits_; }
    u64 schemeTrials() const { return schemeTrials_; }
    /** Misses that displaced a valid, differently-keyed entry. */
    u64 conflictEvictions() const { return conflictEvictions_; }

  private:
    struct Entry
    {
        CacheBlock key;
        CopEncodeResult result;
    };

    /**
     * All-zero bytes are an empty set (no valid way, PLRU state 0), so
     * the set array lives on zero pages (common/zero_pages.hpp) and no
     * set is written before its first fill. A way's entry is read only
     * while its valid bit is set, after a fill has written all of it.
     */
    struct Set
    {
        /** Content hash of each valid way's key. */
        u64 hashes[kWays] = {};
        /** Bit w set: way w holds an entry. */
        u8 valid = 0;
        Plru4 plru;
        Entry ways[kWays];
    };

    /** Multiply-xor mix of the eight block words. */
    static u64
    contentHash(const CacheBlock &data)
    {
        u64 h = 0x9e3779b97f4a7c15ULL;
        for (unsigned w = 0; w < 8; ++w) {
            h ^= data.word64(w);
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 33;
        }
        return h;
    }

    ZeroedArray<Set> sets_;
    u64 mask_ = 0;
    u64 lookups_ = 0;
    u64 hits_ = 0;
    u64 schemeTrials_ = 0;
    u64 conflictEvictions_ = 0;
    /** Result holder for the counting-only (uncached) mode. */
    CopEncodeResult scratch_;
};

} // namespace cop

#endif // COP_CORE_ENCODE_MEMO_HPP

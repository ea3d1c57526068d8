/**
 * @file
 * Open-addressing hash containers for u64 keys (addresses, block
 * indices): FlatMap<V> and FlatSet. Power-of-two capacity, linear
 * probing with backward-shift deletion (no tombstones, so probe chains
 * never rot), splitmix64 key mixing (simulated addresses are multiples
 * of 64 and metadata spaces sit at 1<<40 / 1<<41 — the raw keys are
 * catastrophically non-uniform).
 *
 * Layout: a one-byte control array followed by an unpadded (key,
 * value) slot array, in one block from allocateZeroed
 * (common/zero_pages.hpp). A control byte is 0 for an empty slot,
 * otherwise 0x80 plus the top 7 bits of the key's hash, so a probe
 * walks the dense control bytes and reads a slot's key only when the
 * 7-bit fragment matches. The home slot (low hash bits), the probe
 * order, the backward shift and the 7/8 growth rule do not depend on
 * the control bytes: every entry lands in the slot a plain
 * linear-probing table would give it, and iteration order is that
 * table's slot order.
 *
 * Storage: only the control bytes are ever relied on to read as zero.
 * A slot is raw storage until an entry lands in it (placement-new in
 * place()) and is destroyed when its entry leaves (the final hole of
 * an erase, the old table of a rehash, clear, the destructor). So
 * reserve() of a large table writes nothing: its pages stay untouched
 * zero pages until a probe or an insert reaches them, and a table of
 * 2 MB or more sits on huge pages.
 *
 * These replace std::unordered_map/set on the simulator's hot paths
 * (stored blocks, version maps, check sidecars), where the node-based
 * layout costs an allocation plus a dependent pointer chase per lookup.
 * Semantics match the std containers for the operations offered, with
 * one deliberate difference: references and iterators are invalidated
 * by ANY insertion (the slot array may rehash), not just by
 * rehash-past-load-factor. Callers must not hold a reference across an
 * insert into the same container.
 *
 * Iteration order is unspecified by the interface and changes across
 * rehashes — exactly like the std containers. Call sites that need
 * determinism sort, as MemoryController::imageAddressesSorted always
 * has.
 */

#ifndef COP_COMMON_FLAT_MAP_HPP
#define COP_COMMON_FLAT_MAP_HPP

#include <cstddef>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/types.hpp"
#include "common/zero_pages.hpp"

namespace cop {

namespace detail {

/** splitmix64 finaliser: full-avalanche mix of a 64-bit key. */
inline u64
flatHash(u64 key)
{
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
}

/** Control byte of a full slot: occupied bit plus the hash's top 7 bits. */
inline u8
flatCtrl(u64 hash)
{
    return static_cast<u8>(0x80 | (hash >> 57));
}

/** Smallest power of two >= @p n (and >= 16). */
inline u64
flatCapacityFor(u64 n)
{
    u64 cap = 16;
    while (cap < n)
        cap <<= 1;
    return cap;
}

} // namespace detail

/**
 * Open-addressing hash map from u64 keys to @p V. Grows at 7/8 load
 * (linear probing stays fast well past the usual 0.7 rule of thumb
 * because deletion backward-shifts instead of leaving tombstones;
 * 7/8 keeps the footprint-reserved maps compact).
 */
template <typename V> class FlatMap
{
  public:
    using value_type = std::pair<u64, V>;

    template <bool Const> class Iter
    {
      public:
        using SlotPtr =
            std::conditional_t<Const, const value_type *, value_type *>;
        using Ref =
            std::conditional_t<Const, const value_type &, value_type &>;

        Iter() = default;
        Iter(const u8 *ctrl, const u8 *end, SlotPtr slot)
            : ctrl_(ctrl), end_(end), slot_(slot)
        {
            skipEmpty();
        }

        /** iterator -> const_iterator conversion. */
        template <bool WasConst,
                  typename = std::enable_if_t<Const && !WasConst>>
        Iter(const Iter<WasConst> &o)
            : ctrl_(o.ctrl_), end_(o.end_), slot_(o.slot_)
        {
        }

        Ref operator*() const { return *slot_; }
        SlotPtr operator->() const { return slot_; }

        Iter &
        operator++()
        {
            ++ctrl_;
            ++slot_;
            skipEmpty();
            return *this;
        }

        bool operator==(const Iter &o) const { return ctrl_ == o.ctrl_; }
        bool operator!=(const Iter &o) const { return ctrl_ != o.ctrl_; }

      private:
        template <bool> friend class Iter;

        void
        skipEmpty()
        {
            while (ctrl_ != end_ && *ctrl_ == 0) {
                ++ctrl_;
                ++slot_;
            }
        }

        const u8 *ctrl_ = nullptr;
        const u8 *end_ = nullptr;
        SlotPtr slot_ = nullptr;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    /**
     * Outcome of probe(): where @p key is, or — on a miss — the empty
     * slot that ends its probe chain, which insert() fills without
     * probing again. Valid until the map next changes.
     */
    class Probe
    {
      public:
        bool found() const { return found_; }
        u64 key() const { return key_; }

      private:
        friend class FlatMap;
        Probe(u64 key, u64 hash, size_t pos, bool found)
            : key_(key), hash_(hash), pos_(pos), found_(found)
        {
        }

        u64 key_;
        u64 hash_;
        size_t pos_;
        bool found_;
    };

    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;
    FlatMap(FlatMap &&o) noexcept { swap(o); }
    FlatMap &
    operator=(FlatMap &&o) noexcept
    {
        FlatMap(std::move(o)).swap(*this);
        return *this;
    }
    ~FlatMap() { release(); }

    /** Pre-size so @p n entries fit without rehashing. */
    void
    reserve(u64 n)
    {
        const u64 want = detail::flatCapacityFor(n + n / 7 + 1);
        if (want > capacity_)
            rehash(want);
    }

    /** Look @p key up once, remembering where an insert would go. */
    Probe
    probe(u64 key) const
    {
        const u64 hash = detail::flatHash(key);
        if (capacity_ == 0)
            return Probe(key, hash, 0, false);
        const u8 tag = detail::flatCtrl(hash);
        size_t pos = static_cast<size_t>(hash) & mask_;
        for (u8 c; (c = ctrl_[pos]) != 0; pos = (pos + 1) & mask_) {
            if (c == tag && slots_[pos].first == key)
                return Probe(key, hash, pos, true);
        }
        return Probe(key, hash, pos, false);
    }

    /** The value a found() probe points at. */
    V &
    at(const Probe &p)
    {
        COP_ASSERT(p.found_);
        return slots_[p.pos_].second;
    }

    /**
     * Insert (key, V(args...)) for a key @p p missed and return the new
     * value. Growth follows emplace(): when the insert crosses the 7/8
     * load, the table doubles and the key is placed by a fresh probe.
     */
    template <typename... Args>
    V &
    insert(const Probe &p, Args &&...args)
    {
        COP_ASSERT(!p.found_);
        size_t pos = p.pos_;
        if (needsGrowth()) {
            grow();
            pos = emptySlotFor(p.hash_);
        }
        COP_ASSERT(ctrl_[pos] == 0);
        return place(pos, p.key_, p.hash_, std::forward<Args>(args)...)
            .second;
    }

    iterator
    find(u64 key)
    {
        const Probe p = probe(key);
        return p.found_ ? iteratorAt(p.pos_) : end();
    }

    const_iterator
    find(u64 key) const
    {
        const Probe p = probe(key);
        return p.found_ ? iteratorAt(p.pos_) : end();
    }

    size_t count(u64 key) const { return probe(key).found_ ? 1 : 0; }

    /**
     * Insert (key, V(args...)) unless the key is present; returns the
     * entry's iterator and whether it was inserted. Value construction
     * is skipped entirely when the key already exists. The 7/8 growth
     * check runs first, whether or not the key is present.
     */
    template <typename... Args>
    std::pair<iterator, bool>
    emplace(u64 key, Args &&...args)
    {
        if (needsGrowth())
            grow();
        const Probe p = probe(key);
        if (p.found_)
            return {iteratorAt(p.pos_), false};
        place(p.pos_, key, p.hash_, std::forward<Args>(args)...);
        return {iteratorAt(p.pos_), true};
    }

    V &operator[](u64 key) { return emplace(key).first->second; }

    /** Erase by key; returns the number of entries removed (0 or 1). */
    size_t
    erase(u64 key)
    {
        const Probe p = probe(key);
        if (!p.found_)
            return 0;
        // Backward-shift deletion: pull every displaced follower of the
        // probe chain one hole back, so lookups never need tombstones.
        size_t hole = p.pos_;
        for (size_t next = (hole + 1) & mask_; ctrl_[next] != 0;
             next = (next + 1) & mask_) {
            const size_t home =
                static_cast<size_t>(
                    detail::flatHash(slots_[next].first)) &
                mask_;
            // `next` may fill the hole iff its home slot does not lie
            // in the cyclic range (hole, next] — otherwise moving it
            // would place it before its home and break its own chain.
            if (((next - home) & mask_) >= ((next - hole) & mask_)) {
                slots_[hole] = std::move(slots_[next]);
                ctrl_[hole] = ctrl_[next];
                hole = next;
            }
        }
        slots_[hole].~value_type();
        ctrl_[hole] = 0;
        --size_;
        return 1;
    }

    /** Drop every entry and the table itself (capacity() becomes 0). */
    void clear() { FlatMap().swap(*this); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Allocated slot count (load-factor observability). */
    u64 capacity() const { return capacity_; }

    iterator begin() { return iteratorAt(0); }
    iterator end() { return iteratorAt(capacity_); }
    const_iterator begin() const { return iteratorAt(0); }
    const_iterator end() const { return iteratorAt(capacity_); }

  private:
    static_assert(alignof(value_type) <= 16,
                  "slots follow a control array of 16n bytes");

    iterator
    iteratorAt(size_t pos)
    {
        return iterator(ctrl_ + pos, ctrl_ + capacity_, slots_ + pos);
    }

    const_iterator
    iteratorAt(size_t pos) const
    {
        return const_iterator(ctrl_ + pos, ctrl_ + capacity_, slots_ + pos);
    }

    /** Would one more entry cross the 7/8 load (or is there no table)? */
    bool
    needsGrowth() const
    {
        return capacity_ == 0 || size_ + 1 > capacity_ - capacity_ / 8;
    }

    void grow() { rehash(capacity_ == 0 ? 16 : capacity_ * 2); }

    /** Bytes of the one block holding @p capacity control bytes and slots. */
    static size_t
    blockBytes(size_t capacity)
    {
        return capacity * (1 + sizeof(value_type));
    }

    void
    swap(FlatMap &o) noexcept
    {
        std::swap(ctrl_, o.ctrl_);
        std::swap(slots_, o.slots_);
        std::swap(capacity_, o.capacity_);
        std::swap(mask_, o.mask_);
        std::swap(size_, o.size_);
    }

    /** Destroy every entry and free the block (the members go stale). */
    void
    release()
    {
        if constexpr (!std::is_trivially_destructible_v<value_type>) {
            for (size_t i = 0; i < capacity_; ++i) {
                if (ctrl_[i] != 0)
                    slots_[i].~value_type();
            }
        }
        freeZeroed(ctrl_, blockBytes(capacity_));
    }

    /** First empty slot on the probe chain of a key hashing to @p hash. */
    size_t
    emptySlotFor(u64 hash) const
    {
        size_t pos = static_cast<size_t>(hash) & mask_;
        while (ctrl_[pos] != 0)
            pos = (pos + 1) & mask_;
        return pos;
    }

    template <typename... Args>
    value_type &
    place(size_t pos, u64 key, u64 hash, Args &&...args)
    {
        value_type *slot = ::new (static_cast<void *>(slots_ + pos))
            value_type(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...));
        ctrl_[pos] = detail::flatCtrl(hash);
        ++size_;
        return *slot;
    }

    void
    rehash(u64 new_capacity)
    {
        const size_t cap = static_cast<size_t>(new_capacity);
        u8 *block = static_cast<u8 *>(allocateZeroed(blockBytes(cap)));
        FlatMap old;
        swap(old);
        ctrl_ = block;
        slots_ = reinterpret_cast<value_type *>(ctrl_ + cap);
        capacity_ = cap;
        mask_ = cap - 1;
        size_ = old.size_;
        for (size_t i = 0; i < old.capacity_; ++i) {
            if (old.ctrl_[i] == 0)
                continue;
            value_type &entry = old.slots_[i];
            const size_t pos = emptySlotFor(detail::flatHash(entry.first));
            ::new (static_cast<void *>(slots_ + pos))
                value_type(std::move(entry));
            ctrl_[pos] = old.ctrl_[i];
        }
    }

    /** Start of the block; 0 = empty, else flatCtrl(hash of the key). */
    u8 *ctrl_ = nullptr;
    /** capacity_ slots right after the control bytes; raw when empty. */
    value_type *slots_ = nullptr;
    size_t capacity_ = 0;
    size_t mask_ = 0;
    size_t size_ = 0;
};

/** Open-addressing hash set of u64 keys; a FlatMap with empty values. */
class FlatSet
{
  public:
    /** Insert @p key; returns true when it was not already present. */
    bool insert(u64 key) { return map_.emplace(key).second; }
    size_t count(u64 key) const { return map_.count(key); }
    size_t erase(u64 key) { return map_.erase(key); }
    void reserve(u64 n) { map_.reserve(n); }
    void clear() { map_.clear(); }
    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    u64 capacity() const { return map_.capacity(); }

  private:
    struct Empty
    {
    };

    FlatMap<Empty> map_;
};

} // namespace cop

#endif // COP_COMMON_FLAT_MAP_HPP

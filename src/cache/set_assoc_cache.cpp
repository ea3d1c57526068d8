#include "cache/set_assoc_cache.hpp"

#include <algorithm>

namespace cop {

SetAssocCache::SetAssocCache(const CacheConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
    tags_.assign(cfg_.sets() * cfg_.ways, kNoTag);
    lru_.resize(cfg_.sets() * cfg_.ways);
    state_.resize(cfg_.sets() * cfg_.ways);
    spill_.resize(cfg_.sets());
    setMask_ = cfg_.sets() - 1;
}

u64
SetAssocCache::setIndex(Addr block_addr) const
{
    return (block_addr / kBlockBytes) & setMask_;
}

size_t
SetAssocCache::lookup(Addr block_addr) const
{
    const size_t base = setIndex(block_addr) * cfg_.ways;
    const Addr *tags = tags_.data() + base;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == block_addr)
            return base + w;
    }
    return kNoLine;
}

CacheLineState *
SetAssocCache::findSpilled(Addr block_addr)
{
    if (spilled_ == 0)
        return nullptr;
    for (auto &[addr, state] : spill_[setIndex(block_addr)]) {
        if (addr == block_addr)
            return &state;
    }
    return nullptr;
}

bool
SetAssocCache::access(Addr block_addr, bool is_write)
{
    COP_ASSERT(block_addr != kNoTag);
    ++clock_;
    if (const size_t i = lookup(block_addr); i != kNoLine) {
        lru_[i] = clock_;
        CacheLineState &state = state_[i];
        state.dirty |= is_write;
        if (is_write && state.alias) {
            // A store changed the content; whether it still aliases is
            // re-decided by the encoder at the next eviction attempt.
            state.alias = false;
            --stats_.aliasPinned;
        }
        ++stats_.hits;
        return true;
    }
    // Spill list (overflowed pinned set): a hit here models following
    // the per-set overflow pointer into DRAM.
    if (CacheLineState *state = findSpilled(block_addr)) {
        state->dirty |= is_write;
        ++stats_.hits;
        ++stats_.spillHits;
        return true;
    }
    ++stats_.misses;
    return false;
}

bool
SetAssocCache::probe(Addr block_addr) const
{
    if (lookup(block_addr) != kNoLine)
        return true;
    return spilled_ != 0 &&
           std::ranges::any_of(spill_[setIndex(block_addr)],
                               [&](const auto &e) {
                                   return e.first == block_addr;
                               });
}

CacheEviction
SetAssocCache::insert(Addr block_addr, bool dirty,
                      const EvictFilter &can_evict,
                      CacheLineState **installed)
{
    COP_ASSERT(block_addr != kNoTag);
    ++clock_;
    const u64 set = setIndex(block_addr);
    const size_t base = set * cfg_.ways;
    Addr *tags = tags_.data() + base;
    u64 *lru = lru_.data() + base;
    CacheLineState *state = state_.data() + base;
    constexpr unsigned kNone = ~0u;
    // With no line pinned anywhere, no way is excluded and the alias
    // bits need not be read.
    const bool any_pinned = stats_.aliasPinned != 0;

    // One fused pass: duplicate check (reachable through any caller
    // that races lookup/insert — inserting a resident block would
    // leave two lines for one address), first invalid way, and the
    // LRU-minimum among unpinned lines. Way order and the strict `<`
    // keep victim choice identical to separate scans.
    unsigned victim = kNone;
    unsigned candidate = kNone;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == kNoTag) {
            if (victim == kNone)
                victim = w;
            continue;
        }
        if (tags[w] == block_addr)
            COP_PANIC("insert of already-resident block " +
                      std::to_string(block_addr));
        if ((!any_pinned || !state[w].alias) &&
            (candidate == kNone || lru[w] < lru[candidate]))
            candidate = w;
    }

    // Victim selection: invalid way first, then LRU among lines that
    // are not alias-pinned. A dirty candidate the filter rejects is
    // itself an alias: pin it and move on to the next-LRU line.
    while (victim == kNone && candidate != kNone) {
        if (can_evict && state[candidate].dirty &&
            !can_evict(tags[candidate], state[candidate])) {
            state[candidate].alias = true;
            ++stats_.aliasPinned;
            candidate = kNone;
            for (unsigned w = 0; w < cfg_.ways; ++w) {
                if (state[w].alias)
                    continue;
                if (candidate == kNone || lru[w] < lru[candidate])
                    candidate = w;
            }
            continue;
        }
        victim = candidate;
    }

    CacheEviction evicted;
    if (victim == kNone) {
        // Every way pinned: overflow the set (Section 3.1's linked-list
        // spill). Exceedingly rare; correctness only.
        ++stats_.setOverflows;
        ++spilled_;
        spill_[set].push_back(
            {block_addr, CacheLineState{dirty, false, false}});
        if (installed != nullptr)
            *installed = &spill_[set].back().second;
        return evicted;
    }

    if (tags[victim] != kNoTag) {
        ++stats_.evictions;
        if (state[victim].dirty)
            ++stats_.dirtyEvictions;
        evicted.valid = true;
        evicted.addr = tags[victim];
        evicted.state = state[victim];
    }

    tags[victim] = block_addr;
    lru[victim] = clock_;
    state[victim] = CacheLineState{dirty, false, false};
    if (installed != nullptr)
        *installed = &state[victim];
    return evicted;
}

CacheLineState *
SetAssocCache::findState(Addr block_addr)
{
    if (const size_t i = lookup(block_addr); i != kNoLine)
        return &state_[i];
    return findSpilled(block_addr);
}

void
SetAssocCache::setAlias(Addr block_addr, bool alias)
{
    CacheLineState *state = findState(block_addr);
    if (state == nullptr)
        COP_PANIC("setAlias on non-resident block " +
                  std::to_string(block_addr));
    setAlias(*state, alias);
}

void
SetAssocCache::setAlias(CacheLineState &state, bool alias)
{
    if (alias && !state.alias)
        ++stats_.aliasPinned;
    else if (!alias && state.alias)
        --stats_.aliasPinned;
    state.alias = alias;
}

void
SetAssocCache::invalidate(Addr block_addr)
{
    if (const size_t i = lookup(block_addr); i != kNoLine) {
        if (state_[i].alias)
            --stats_.aliasPinned;
        tags_[i] = kNoTag;
        lru_[i] = 0;
        state_[i] = CacheLineState{};
        return;
    }
    spilled_ -= std::erase_if(
        spill_[setIndex(block_addr)],
        [&](const auto &e) { return e.first == block_addr; });
}

std::vector<CacheEviction>
SetAssocCache::drainDirty()
{
    std::vector<CacheEviction> drained;
    // Per-set (ways, then that set's spill) order — callers replay the
    // drained writebacks in sequence, so the order is part of results.
    for (u64 s = 0; s <= setMask_; ++s) {
        const size_t base = s * cfg_.ways;
        for (size_t i = base; i < base + cfg_.ways; ++i) {
            CacheLineState &state = state_[i];
            if (tags_[i] != kNoTag && state.dirty) {
                drained.push_back({true, tags_[i], state});
                state.dirty = false;
            }
        }
        for (auto &[addr, state] : spill_[s]) {
            if (state.dirty) {
                drained.push_back({true, addr, state});
                state.dirty = false;
            }
        }
    }
    return drained;
}

} // namespace cop

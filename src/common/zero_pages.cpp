#include "common/zero_pages.hpp"

#include <cstdint>
#include <cstdlib>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace cop {

namespace {

/** Length of the mapping backing a block of @p bytes (whole pages). */
std::size_t
mappedLength(std::size_t bytes)
{
    static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) & ~(page - 1);
}

} // namespace

void *
allocateZeroed(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    if (bytes < kZeroPagesMapBytes) {
        void *p = std::calloc(1, bytes);
        if (p == nullptr)
            throw std::bad_alloc();
        return p;
    }
    // Over-map by one huge page, then trim the head and tail so the
    // block starts on a 2 MB boundary and ends at its own last page.
    const std::size_t len = mappedLength(bytes);
    const std::size_t span = len + kZeroPagesMapBytes;
    void *raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (base + kZeroPagesMapBytes - 1) & ~(kZeroPagesMapBytes - 1);
    if (start > base)
        munmap(raw, start - base);
    munmap(reinterpret_cast<void *>(start + len), base + span - (start + len));
    void *p = reinterpret_cast<void *>(start);
#ifdef MADV_HUGEPAGE
    // Only the whole 2 MB pages inside the block; the advice is a hint,
    // so a kernel without transparent huge pages just ignores it.
    madvise(p, bytes & ~(kZeroPagesMapBytes - 1), MADV_HUGEPAGE);
#endif
    return p;
}

void
freeZeroed(void *p, std::size_t bytes)
{
    if (p == nullptr)
        return;
    if (bytes < kZeroPagesMapBytes)
        std::free(p);
    else
        munmap(p, mappedLength(bytes));
}

} // namespace cop

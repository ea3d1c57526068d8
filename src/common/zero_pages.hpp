/**
 * @file
 * Zero-filled memory that costs nothing until it is touched, for the
 * simulator's large per-System tables (FlatMap slot arrays, the encode
 * memo, the content cache).
 *
 * allocateZeroed(bytes) returns memory whose every byte reads as zero:
 *
 *  - Blocks of kZeroPagesMapBytes (2 MB) or more come from a fresh
 *    anonymous mapping, aligned to 2 MB. The kernel maps a page only
 *    when it is first touched, and an untouched page is never written,
 *    so a 40 MB table costs no zeroing at construction. Every whole
 *    2 MB page inside the block is advised MADV_HUGEPAGE: a first touch
 *    then faults in one 2 MB page instead of 512 4 KB pages, and random
 *    probes over a large table miss the TLB less. The length is
 *    never rounded up to 2 MB — the partial tail stays on 4 KB pages,
 *    so a table occupies no more memory than it asks for.
 *  - Smaller blocks come from calloc, which is as cheap as it gets for
 *    them.
 *
 * There is no knob: the size rule is the whole policy, and results do
 * not depend on it (the bytes read as zero either way).
 *
 * ZeroedArray<T> puts a fixed-length array on that memory for types
 * whose all-zero bytes are their empty state. Like calloc'd memory,
 * the block implicitly creates the elements (C++20 [intro.object]), so
 * T must be trivially copyable and trivially destructible: no
 * constructor ever runs, and none needs to.
 */

#ifndef COP_COMMON_ZERO_PAGES_HPP
#define COP_COMMON_ZERO_PAGES_HPP

#include <cstddef>
#include <type_traits>
#include <utility>

namespace cop {

/** Blocks at least this large are mapped (and use huge pages). */
inline constexpr std::size_t kZeroPagesMapBytes = std::size_t{2} << 20;

/**
 * @p bytes of memory reading as zero, aligned for any fundamental type.
 * Throws std::bad_alloc when the memory cannot be had. @p bytes = 0
 * returns nullptr.
 */
void *allocateZeroed(std::size_t bytes);

/** Release a block from allocateZeroed(@p bytes); nullptr is a no-op. */
void freeZeroed(void *p, std::size_t bytes);

/** Fixed-length array of @p T whose elements start as all-zero bytes. */
template <typename T> class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroedArray elements are created by the zero bytes");

  public:
    ZeroedArray() = default;
    explicit ZeroedArray(std::size_t n)
        : data_(static_cast<T *>(allocateZeroed(n * sizeof(T)))), size_(n)
    {
    }
    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }
    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        return *this;
    }
    ~ZeroedArray() { freeZeroed(data_, size_ * sizeof(T)); }

    T &operator[](std::size_t i) { return data_[i]; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace cop

#endif // COP_COMMON_ZERO_PAGES_HPP

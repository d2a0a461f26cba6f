/**
 * @file
 * Hints about the process's own memory: prefetch a byte range before
 * it is read, and ask for transparent huge pages on a large buffer.
 * Both are hints only.  They change no value, fire no event and move
 * no counter, and a kernel that ignores them (THP mode `never`, a
 * failed madvise) leaves every result identical, only slower.
 */

#ifndef SECUREDIMM_UTIL_MEMORY_HINTS_HH
#define SECUREDIMM_UTIL_MEMORY_HINTS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace secdimm::util
{

/** Prefetch every 64-byte line of [@p p, @p p + @p n) for reading. */
[[gnu::always_inline]] inline void
prefetchRange(const void *p, std::size_t n)
{
    auto line = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t end = line + n;
    for (line &= ~std::uintptr_t{63}; line < end; line += 64)
        __builtin_prefetch(reinterpret_cast<const void *>(line));
}

/**
 * Ask the kernel to back the 2 MiB-aligned interior of
 * [@p p, @p p + @p n) with huge pages.  Must come before the range is
 * first touched; the edges stay on base pages.  A refusal is ignored.
 */
void adviseHugePages(void *p, std::size_t n);

/**
 * std::allocator that advises huge pages on each allocation before
 * the container fills it, so the fill's first touch faults huge pages
 * in.  Stateless: any two compare equal.
 */
template <typename T>
struct HugePageAllocator
{
    using value_type = T;

    HugePageAllocator() = default;
    template <typename U>
    HugePageAllocator(const HugePageAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        T *p = std::allocator<T>{}.allocate(n);
        adviseHugePages(p, n * sizeof(T));
        return p;
    }
    void
    deallocate(T *p, std::size_t n)
    {
        std::allocator<T>{}.deallocate(p, n);
    }

    friend bool
    operator==(const HugePageAllocator &, const HugePageAllocator &)
    {
        return true;
    }
};

/** A vector whose storage is advised onto huge pages. */
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

} // namespace secdimm::util

#endif // SECUREDIMM_UTIL_MEMORY_HINTS_HH

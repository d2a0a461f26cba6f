#include "util/memory_hints.hh"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace secdimm::util
{

void
adviseHugePages(void *p, std::size_t n)
{
#if defined(MADV_HUGEPAGE)
    constexpr std::uintptr_t huge = std::uintptr_t{2} << 20;
    const auto begin = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t lo = (begin + huge - 1) & ~(huge - 1);
    const std::uintptr_t hi = (begin + n) & ~(huge - 1);
    if (lo < hi)
        (void)madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)p;
    (void)n;
#endif
}

} // namespace secdimm::util

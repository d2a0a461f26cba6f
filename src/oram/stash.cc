#include "oram/stash.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "oram/bucket.hh"
#include "util/logging.hh"

namespace secdimm::oram
{

namespace
{

/** depth_ marker for an entry fillPath has placed. */
constexpr std::uint8_t kPlaced = 0xff;

} // namespace

Stash::Stash(unsigned capacity)
    : capacity_(capacity), depth_(capacity), order_(capacity)
{
    entries_.reserve(capacity);
}

bool
Stash::put(Addr addr, LeafId leaf, const BlockData &data)
{
    if (StashEntry *e = find(addr)) {
        e->leaf = leaf;
        e->data = data;
        return true;
    }
    if (entries_.size() >= capacity_)
        return false;
    entries_.push_back(StashEntry{addr, leaf, data});
    maxSize_ = std::max(maxSize_, entries_.size());
    return true;
}

StashEntry *
Stash::find(Addr addr)
{
    for (StashEntry &e : entries_) {
        if (e.addr == addr)
            return &e;
    }
    return nullptr;
}

const StashEntry *
Stash::find(Addr addr) const
{
    return const_cast<Stash *>(this)->find(addr);
}

bool
Stash::erase(Addr addr)
{
    StashEntry *e = find(addr);
    if (e == nullptr)
        return false;
    if (e != &entries_.back())
        *e = entries_.back();
    entries_.pop_back();
    return true;
}

void
Stash::fillPath(LeafId path_leaf, unsigned tree_levels, unsigned z,
                std::uint8_t *images)
{
    SD_ASSERT(tree_levels < 64);
    const std::size_t n = entries_.size();

    // Deepest legal level of each entry: the length of the common
    // prefix of its leaf and path_leaf, as tree_levels-bit numbers.
    unsigned count[64] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const LeafId leaf = entries_[i].leaf;
        SD_ASSERT(leaf >> tree_levels == 0);
        const LeafId diff = leaf ^ path_leaf;
        const unsigned d =
            diff == 0 ? tree_levels
                      : tree_levels - 64 +
                            static_cast<unsigned>(std::countl_zero(diff));
        depth_[i] = static_cast<std::uint8_t>(d);
        ++count[d];
    }
    // Counting sort, deepest first, so the entries still allowed at
    // level l are always a prefix of what is left of order_.
    unsigned start[64] = {};
    unsigned pos = 0;
    for (int d = static_cast<int>(tree_levels); d >= 0; --d) {
        start[d] = pos;
        pos += count[d];
    }
    for (std::size_t i = 0; i < n; ++i)
        order_[start[depth_[i]]++] = static_cast<std::uint32_t>(i);

    const std::size_t img = Bucket::imageBytes(z);
    std::size_t next = 0;
    for (int level = static_cast<int>(tree_levels); level >= 0; --level) {
        std::uint8_t *meta = images + (tree_levels - level) * img;
        std::uint8_t *data = meta + Bucket::metadataBytes(z);
        for (unsigned slot = 0; slot < z; ++slot) {
            Addr addr = invalidAddr;
            LeafId leaf = invalidLeaf;
            if (next < n && depth_[order_[next]] >= level) {
                const std::uint32_t i = order_[next++];
                const StashEntry &e = entries_[i];
                addr = e.addr;
                leaf = e.leaf;
                std::memcpy(data + blockBytes * slot, e.data.data(),
                            blockBytes);
                depth_[i] = kPlaced;
            } else {
                std::memset(data + blockBytes * slot, 0, blockBytes);
            }
            std::memcpy(meta + 16 * slot, &addr, 8);
            std::memcpy(meta + 16 * slot + 8, &leaf, 8);
        }
    }

    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (depth_[i] == kPlaced)
            continue;
        if (kept != i)
            entries_[kept] = entries_[i];
        ++kept;
    }
    entries_.resize(kept);
}

} // namespace secdimm::oram

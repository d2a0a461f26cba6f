/**
 * @file
 * The ORAM stash: a small on-controller buffer holding blocks between
 * the path read and the path write-back, plus the greedy eviction rule
 * that repacks stash blocks into path buckets.  Path ORAM keeps whole
 * blocks in it (Stash); Split ORAM keeps its shadow records.
 */

#ifndef SECUREDIMM_ORAM_STASH_HH
#define SECUREDIMM_ORAM_STASH_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/types.hh"

namespace secdimm::oram
{

/** One stash-resident block. */
struct StashEntry
{
    Addr addr = invalidAddr;
    LeafId leaf = invalidLeaf;
    BlockData data{};
};

/**
 * Fixed-capacity stash of any entry type with `addr` and `leaf`
 * members: one array of at most capacity() entries, allocated once.
 * find() scans it, erase() moves the last entry into the hole, and
 * evict() repacks it onto a whole path in one pass.
 */
template <class Entry>
class BasicStash
{
  public:
    explicit BasicStash(unsigned capacity)
        : capacity_(capacity), depth_(capacity), order_(capacity)
    {
        entries_.reserve(capacity);
    }

    /** Insert, or overwrite the entry for e.addr; returns false if at
     *  capacity (new addr). */
    bool put(const Entry &e)
    {
        if (Entry *old = find(e.addr)) {
            *old = e;
            return true;
        }
        if (entries_.size() >= capacity_)
            return false;
        entries_.push_back(e);
        maxSize_ = std::max(maxSize_, entries_.size());
        return true;
    }

    /** Pointer to the entry or nullptr; invalidated by put/erase. */
    Entry *find(Addr addr)
    {
        for (Entry &e : entries_) {
            if (e.addr == addr)
                return &e;
        }
        return nullptr;
    }
    const Entry *find(Addr addr) const
    {
        return const_cast<BasicStash *>(this)->find(addr);
    }

    /** Remove an entry; returns true if present. */
    bool erase(Addr addr)
    {
        Entry *e = find(addr);
        if (e == nullptr)
            return false;
        if (e != &entries_.back())
            *e = entries_.back();
        entries_.pop_back();
        return true;
    }

    /**
     * Greedy eviction onto the path to @p path_leaf in a tree of
     * @p tree_levels levels with @p z slots per bucket.  Each entry's
     * deepest legal level (the length of the common prefix of its
     * leaf and @p path_leaf) is computed once; the path is then
     * filled bottom-up, each bucket taking up to @p z of the
     * remaining entries that may sit there, deepest-legal first.
     * @p sink(level, placed) is called once per level, leaf first,
     * with the entries for that bucket's first placed.size() slots
     * (the rest are dummies); placed entries leave the stash after
     * the last call.
     */
    template <class Sink>
    void evict(LeafId path_leaf, unsigned tree_levels, unsigned z,
               Sink &&sink);

    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }
    /** Peak occupancy, counted at every insertion. */
    std::size_t maxSizeSeen() const { return maxSize_; }

    /**
     * Record the current occupancy as one histogram sample.  The
     * owner calls this once per accessORAM (after the path read, at
     * the occupancy peak) so the histogram matches Path ORAM's
     * stash-occupancy analysis [11].
     */
    void sampleOccupancy() { occupancy_.sample(entries_.size()); }
    const util::LogHistogram &occupancyHistogram() const
    {
        return occupancy_;
    }

    /** The resident entries, in no particular order (audits,
     *  evacuation). */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    /** depth_ marker for an entry evict() has placed. */
    static constexpr std::uint8_t kPlaced = 0xff;

    unsigned capacity_;
    /** Reserved to capacity_ at construction; never reallocates. */
    std::vector<Entry> entries_;
    /** evict() scratch, capacity_ each: deepest legal level, order. */
    std::vector<std::uint8_t> depth_;
    std::vector<const Entry *> order_;
    std::size_t maxSize_ = 0;
    util::LogHistogram occupancy_;
};

template <class Entry>
template <class Sink>
void
BasicStash<Entry>::evict(LeafId path_leaf, unsigned tree_levels,
                         unsigned z, Sink &&sink)
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
        order_[start[depth_[i]]++] = &entries_[i];

    std::size_t next = 0;
    for (int level = static_cast<int>(tree_levels); level >= 0; --level) {
        const std::size_t first = next;
        for (; next < n && next - first < z; ++next) {
            std::uint8_t &d = depth_[order_[next] - entries_.data()];
            if (d < level)
                break;
            d = kPlaced;
        }
        sink(static_cast<unsigned>(level),
             std::span<const Entry *const>(order_.data() + first,
                                           next - first));
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

/** Path ORAM's stash of whole blocks. */
class Stash : public BasicStash<StashEntry>
{
  public:
    using BasicStash::BasicStash;
    using BasicStash::put;

    bool put(Addr addr, LeafId leaf, const BlockData &data)
    {
        return put(StashEntry{addr, leaf, data});
    }

    /**
     * evict() onto the path to @p path_leaf, writing the bucket
     * images (Bucket::imageBytes(z) each, in the Bucket image layout,
     * dummy slots zeroed) leaf first: level l lands at @p images +
     * (tree_levels - l) * imageBytes(z).
     */
    void fillPath(LeafId path_leaf, unsigned tree_levels, unsigned z,
                  std::uint8_t *images);
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_STASH_HH

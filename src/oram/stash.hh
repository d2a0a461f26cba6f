/**
 * @file
 * The Path ORAM stash: a small on-controller buffer holding blocks
 * between the path read and the path write-back, plus the greedy
 * eviction rule that repacks stash blocks into path buckets.
 */

#ifndef SECUREDIMM_ORAM_STASH_HH
#define SECUREDIMM_ORAM_STASH_HH

#include <cstdint>
#include <vector>

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
 * Fixed-capacity stash: one array of at most capacity() entries,
 * allocated once.  find() scans it, erase() moves the last entry into
 * the hole, and fillPath() repacks it into a whole path in one pass.
 */
class Stash
{
  public:
    explicit Stash(unsigned capacity);

    /** Insert or overwrite; returns false if at capacity (new addr). */
    bool put(Addr addr, LeafId leaf, const BlockData &data);

    /** Pointer to the entry or nullptr; invalidated by put/erase. */
    StashEntry *find(Addr addr);
    const StashEntry *find(Addr addr) const;

    /** Remove an entry; returns true if present. */
    bool erase(Addr addr);

    /**
     * Greedy eviction onto the path to @p path_leaf in a tree of
     * @p tree_levels levels with @p z slots per bucket.  Each entry's
     * deepest legal level (the length of the common prefix of its
     * leaf and @p path_leaf) is computed once; the path is then
     * filled bottom-up, each bucket taking up to @p z of the
     * remaining entries that may sit there, deepest-legal first.
     * Placed entries leave the stash.
     *
     * The bucket images (Bucket::imageBytes(z) each, in the Bucket
     * image layout, dummy slots zeroed) are written leaf first: level
     * l lands at @p images + (tree_levels - l) * imageBytes(z).
     */
    void fillPath(LeafId path_leaf, unsigned tree_levels, unsigned z,
                  std::uint8_t *images);

    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }
    /** Peak occupancy, including blocks adopted between accesses. */
    std::size_t maxSizeSeen() const { return maxSize_; }
    bool full() const { return entries_.size() >= capacity_; }

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

    /** The resident entries, in no particular order (invariant_audit,
     *  SecureBuffer evacuation). */
    const std::vector<StashEntry> &entries() const { return entries_; }

  private:
    unsigned capacity_;
    /** Reserved to capacity_ at construction; never reallocates. */
    std::vector<StashEntry> entries_;
    /** fillPath scratch, capacity_ each: deepest legal level, order. */
    std::vector<std::uint8_t> depth_;
    std::vector<std::uint32_t> order_;
    std::size_t maxSize_ = 0;
    util::LogHistogram occupancy_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_STASH_HH

/**
 * @file
 * The Path ORAM stash: a small on-controller buffer holding blocks
 * between the path read and the path write-back, plus the greedy
 * eviction rule that repacks stash blocks into path buckets.
 */

#ifndef SECUREDIMM_ORAM_STASH_HH
#define SECUREDIMM_ORAM_STASH_HH

#include <cstdint>
#include <unordered_map>
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

/** Address-indexed stash with occupancy tracking. */
class Stash
{
  public:
    explicit Stash(unsigned capacity) : capacity_(capacity) {}

    /** Insert or overwrite; returns false if at capacity (new addr). */
    bool put(Addr addr, LeafId leaf, const BlockData &data);

    /** Pointer to the entry or nullptr. */
    StashEntry *find(Addr addr);
    const StashEntry *find(Addr addr) const;

    /** Remove an entry; returns true if present. */
    bool erase(Addr addr);

    /**
     * Greedy eviction: pop up to @p z blocks whose leaf path passes
     * through the bucket at (@p level, on the path to @p path_leaf) in
     * a tree of @p tree_levels levels.  Removed from the stash.
     */
    std::vector<StashEntry> evictForBucket(LeafId path_leaf,
                                           unsigned level,
                                           unsigned tree_levels,
                                           unsigned z);

    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }
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

    /** Iteration support (invariant_audit, SecureBuffer). */
    const std::unordered_map<Addr, StashEntry> &entries() const
    {
        return entries_;
    }

  private:
    unsigned capacity_;
    std::unordered_map<Addr, StashEntry> entries_;
    std::size_t maxSize_ = 0;
    util::LogHistogram occupancy_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_STASH_HH

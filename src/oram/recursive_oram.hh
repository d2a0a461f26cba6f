/**
 * @file
 * Functional Freecursive ORAM (Fletcher et al. [4], Section II-D):
 * the data tree's PosMap is itself stored in a smaller ORAM, whose
 * PosMap lives in a yet smaller one, until the top PosMap fits
 * on-chip.  A PosMap Lookaside Buffer caches PosMap *blocks* (leaf
 * arrays) with dirty write-back, short-circuiting the recursion the
 * way the paper's PLB does.
 *
 * This is the functional counterpart of the timing-layer
 * RecursionEngine: real blocks, real leaf swaps, real write-backs.
 */

#ifndef SECUREDIMM_ORAM_RECURSIVE_ORAM_HH
#define SECUREDIMM_ORAM_RECURSIVE_ORAM_HH

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "oram/path_oram.hh"

namespace secdimm::oram
{

/** Statistics of a recursive ORAM instance. */
struct RecursiveOramStats
{
    std::uint64_t requests = 0;
    std::uint64_t treeAccesses = 0; ///< accessORAMs over all trees.
    std::uint64_t plbHits = 0;
    std::uint64_t plbMisses = 0;
    std::uint64_t plbWritebacks = 0;

    double
    avgAccessesPerRequest() const
    {
        return requests ? static_cast<double>(treeAccesses) / requests
                        : 0.0;
    }
};

/** Path ORAM with recursive PosMaps and a PLB. */
class RecursiveOram final : public OramEngine
{
  public:
    struct Params
    {
        OramParams data;              ///< Shape of ORAM_0.
        unsigned leavesPerBlockLog2 = 3; ///< 8 x 8-byte leaves / block.
        std::uint64_t onChipMaxEntries = 1024;
        std::size_t plbEntries = 64;  ///< Cached PosMap blocks.
    };

    RecursiveOram(const Params &params, std::uint64_t seed);

    std::uint64_t capacityBlocks() const;

    /** accessORAM on the data tree, paying real recursion costs. */
    BlockData access(Addr addr, OramOp op,
                     const BlockData *new_data = nullptr) override;

    /** Number of PosMap ORAMs in memory (ORAM_1 .. ORAM_n). */
    unsigned posmapLevels() const
    {
        return static_cast<unsigned>(trees_.size()) - 1;
    }

    const RecursiveOramStats &stats() const { return stats_; }
    std::uint64_t accessCount() const override
    {
        return stats_.treeAccesses;
    }
    bool integrityOk() const override;

    /**
     * Arm DRAM-read fault injection and bounded retry on every tree,
     * data and PosMap alike (nullptr disarms).  Not owned.  No policy
     * applies.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy =
                              fault::DegradationPolicy::RetryThenStop)
        override
    {
        for (auto &t : trees_)
            t->setFaultInjector(inj);
    }

    /** Every tree's visible channel (see PathOram::attachObserver). */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        for (auto &t : trees_)
            t->attachObserver(fn);
        return static_cast<unsigned>(trees_.size());
    }

    /**
     * Export recursion/PLB counters and the data tree's stash
     * statistics under @p prefix (docs/METRICS.md "oram.*").
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Tree at @p level (0 = data), for tests and verify audits. */
    PathOram &tree(unsigned level) { return *trees_[level]; }
    const PathOram &tree(unsigned level) const { return *trees_[level]; }

    /** Fold every tree's crypto work into @p t (crypto.* metrics). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        for (const auto &tree : trees_)
            tree->collectCrypto(t);
    }

  private:
    struct PlbEntry
    {
        std::vector<LeafId> leaves;
        bool dirty = false;
        std::list<std::uint64_t>::iterator lruIt;
    };

    static std::uint64_t
    plbKey(unsigned level, Addr block)
    {
        return (static_cast<std::uint64_t>(level) << 48) | block;
    }

    unsigned leavesPerBlock() const
    {
        return 1u << leavesPerBlockLog2_;
    }

    /** Pack/unpack a PosMap block's leaf array. */
    BlockData packLeaves(const std::vector<LeafId> &leaves) const;
    std::vector<LeafId> unpackLeaves(const BlockData &data) const;

    /**
     * Return the current leaf of block @p idx of tree @p level and
     * atomically replace it with @p new_leaf wherever it is stored
     * (on-chip table, PLB, or a parent PosMap block).
     */
    LeafId fetchAndRemapLeaf(unsigned level, Addr idx, LeafId new_leaf,
                             bool allow_plb_fill);

    /** Insert a PosMap block into the PLB, evicting (and writing
     *  back) the LRU entry if needed. */
    void plbInsert(unsigned level, Addr block,
                   std::vector<LeafId> leaves, bool dirty);

    /** Write a dirty PosMap block back into its tree. */
    void writeBackPosmapBlock(unsigned level, Addr block,
                              const std::vector<LeafId> &leaves);

    Params params_;
    unsigned leavesPerBlockLog2_;
    Rng rng_;

    /** trees_[0] = data; trees_[i] stores PosMap of trees_[i-1]. */
    std::vector<std::unique_ptr<PathOram>> trees_;

    /** Leaves of the top tree's blocks (the on-chip PosMap). */
    std::vector<LeafId> onChip_;

    std::unordered_map<std::uint64_t, PlbEntry> plb_;
    std::list<std::uint64_t> plbLru_; ///< Front = most recent.

    RecursiveOramStats stats_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_RECURSIVE_ORAM_HH

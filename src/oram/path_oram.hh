/**
 * @file
 * Functional Path ORAM (Stefanov et al. [11]) with real encrypted
 * storage: the authoritative implementation of accessORAM that the
 * SDIMM protocols decompose.
 *
 * Integrity: every bucket is PMMAC-tagged; the controller mirrors the
 * expected freshness counter for every bucket (standing in for the
 * PMMAC counter chain of Freecursive [4]), so both tampering and
 * rollback/replay are detected.
 *
 * ORAM cache: the top OramParams::cachedLevels levels live as
 * plaintext bucket images in controller memory (the paper's ~64 KB
 * on-chip cache; Path ORAM's treetop caching).  They never reach the
 * BucketStore, so they cost no crypto, fire no observer event and
 * roll no fault: the channel shows only the uncached suffix of each
 * path.
 */

#ifndef SECUREDIMM_ORAM_PATH_ORAM_HH
#define SECUREDIMM_ORAM_PATH_ORAM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "oram/bucket_store.hh"
#include "oram/oram_engine.hh"
#include "oram/oram_params.hh"
#include "oram/stash.hh"
#include "oram/tree_layout.hh"
#include "util/rng.hh"

namespace secdimm::oram
{

/** Statistics of one PathOram instance. */
struct PathOramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t dummyAccesses = 0;   ///< Background evictions.
    std::uint64_t integrityFailures = 0;
};

/** Functional single-tree Path ORAM. */
class PathOram final : public OramEngine
{
  public:
    PathOram(const OramParams &params, const crypto::Aes128Key &enc_key,
             const crypto::Aes128Key &mac_key, std::uint64_t seed,
             std::uint64_t store_salt = 0);

    /**
     * The accessORAM(a, op, d') interface of Section II-C.
     *
     * @param addr   block address in [0, capacityBlocks)
     * @param op     read or write
     * @param new_data payload for writes (ignored for reads)
     * @return the block's (pre-write) content
     */
    BlockData access(Addr addr, OramOp op,
                     const BlockData *new_data = nullptr) override;

    /**
     * accessORAM with an externally supplied leaf, for distributed
     * frontends (the SDIMM Independent protocol keeps the PosMap at
     * the CPU and ships leaves inside the ACCESS message).
     *
     * @param addr        block address (global; PosMap not consulted)
     * @param old_leaf    current leaf within THIS tree
     * @param new_leaf    new local leaf if the block stays in this
     *                    tree; invalidLeaf if it is being removed
     *                    (remapped to another SDIMM)
     * @param op / new_data as access()
     * @return the block's pre-write content
     */
    BlockData accessExplicit(Addr addr, LeafId old_leaf, LeafId new_leaf,
                             OramOp op,
                             const BlockData *new_data = nullptr);

    /**
     * Read-modify-write accessORAM with an explicit leaf: fetches the
     * block, lets @p mutate edit it in place, and keeps it under
     * @p new_leaf -- one path access, used by the recursive PosMap
     * ORAMs to swap a child leaf inside a PosMap block.
     *
     * @return the block's PRE-mutation content
     */
    BlockData accessMutate(Addr addr, LeafId old_leaf, LeafId new_leaf,
                           const std::function<void(BlockData &)> &mutate);

    /**
     * Service of an APPEND: adopt a block arriving from another
     * SDIMM into the local stash (it settles into the tree on later
     * path writes).  Returns false if the stash is full.
     */
    bool adoptBlock(Addr addr, LeafId local_leaf, const BlockData &data);

    /**
     * Dummy access draining the stash (background eviction, Ren et
     * al. [10]): reads and rewrites a random path without touching
     * any block.
     */
    void backgroundEvict();

    /** Current leaf of a block (tests; a real controller hides this). */
    LeafId leafOf(Addr addr) const;

    const OramParams &params() const { return params_; }
    const PathOramStats &stats() const { return stats_; }
    std::size_t stashSize() const { return stash_.size(); }

    /** Underlying untrusted store (tamper-injection in tests). */
    BucketStore &store() { return store_; }
    const BucketStore &store() const { return store_; }

    /** Physical tree layout (verify audits map seq <-> position). */
    const TreeLayout &layout() const { return layout_; }

    /**
     * The bucket at @p pos, wherever it lives: a cached level's
     * trusted image (always authentic) or the store's decrypted,
     * MAC-checked copy.  The whole-tree walkers (audits, evacuation)
     * read through this so they see blocks in cached levels too.
     */
    BucketReadResult readBucketAt(const BucketPos &pos) const;

    /** Controller stash (verify audits walk its entries). */
    const Stash &stash() const { return stash_; }

    std::uint64_t accessCount() const override
    {
        return stats_.accesses + stats_.dummyAccesses;
    }

    /** True while every MAC/counter check has passed. */
    bool integrityOk() const override
    {
        return stats_.integrityFailures == 0;
    }

    /**
     * Arm fault injection + bounded detect-and-retry (nullptr
     * disarms).  With an injector, a MAC/counter mismatch in
     * readPath() becomes a typed FaultEvent and the bucket read is
     * retried up to the plan's budget before it counts as an
     * integrity failure; without one, behavior is exactly the
     * pre-fault-subsystem fail-stop accounting.  Not owned; also
     * forwarded to the underlying BucketStore.  No policy applies.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy =
                              fault::DegradationPolicy::RetryThenStop)
        override
    {
        injector_ = inj;
        store_.setFaultInjector(inj);
    }

    /**
     * Export access/stash statistics into @p m under @p prefix (see
     * docs/METRICS.md "oram.*").
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Fold this tree's crypto work into @p t (crypto.* metrics). */
    void collectCrypto(crypto::CryptoTotals &t) const override
    {
        store_.collectCrypto(t);
    }

    /** The visible channel: bucket reads and writes (StoreRead /
     *  StoreWrite), which also spell out each path's leaf. */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        store_.setAccessObserver(fn);
        return 1;
    }

  private:
    /**
     * The one accessORAM routine: read the path to @p old_leaf, let
     * @p update edit the block in place (an absent block starts as
     * zeros), keep it under @p new_leaf -- or drop it from this tree
     * when @p new_leaf is invalidLeaf -- write the path back, evict.
     * @return the block's pre-update content
     */
    template <typename Update>
    BlockData accessPath(Addr addr, LeafId old_leaf, LeafId new_leaf,
                         Update &&update);

    /**
     * Read one path into the stash; verifies integrity.  The cached
     * levels are copied from the trusted images; the rest go through
     * BucketStore::readBuckets (one batched MAC pass) into
     * pathImages_, and the stash takes the valid slots straight out
     * of those images.
     */
    void readPath(LeafId leaf);

    /**
     * Whether the store bucket @p seq, read into @p image with MAC
     * verdict @p authentic, is authentic and fresh.  With a fault
     * injector a failing bucket gets per-bucket detect-and-retry, so
     * the fault ledger semantics are those of a single-bucket read.
     */
    bool verifyBucket(std::uint64_t seq, bool authentic,
                      std::uint8_t *image);

    /** Greedily write the stash back onto one path: Stash::fillPath
     *  into pathImages_, one batched BucketStore::writeBuckets of the
     *  uncached levels, and a copy of the cached ones into trusted
     *  memory. */
    void writePath(LeafId leaf);

    /** Trusted image of a bucket in a cached level. */
    std::uint8_t *cachedImage(const BucketPos &pos)
    {
        return cached_.data() + bucketSeqBfs(pos) * store_.imageBytes();
    }
    const std::uint8_t *cachedImage(const BucketPos &pos) const
    {
        return cached_.data() + bucketSeqBfs(pos) * store_.imageBytes();
    }

    OramParams params_;
    TreeLayout layout_;
    BucketStore store_;
    Stash stash_;
    Rng rng_;

    std::vector<LeafId> posMap_;
    /** Controller-side mirror of bucket counters (replay detection). */
    std::vector<std::uint64_t> expectedCounter_;
    /** Plaintext images of the 2^cachedLevels - 1 cached buckets, in
     *  level order (bucketSeqBfs). */
    std::vector<std::uint8_t> cached_;

    PathOramStats stats_;
    fault::FaultInjector *injector_ = nullptr;

    /** Per-path scratch sized once (no allocation on the hot path):
     *  the uncached buckets' seqs, the whole path's plaintext images
     *  (root first on reads, leaf first on writes), its MAC flags. */
    std::vector<std::uint64_t> pathSeqs_;
    std::vector<std::uint8_t> pathImages_;
    std::array<bool, 64> pathOk_{};
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_PATH_ORAM_HH

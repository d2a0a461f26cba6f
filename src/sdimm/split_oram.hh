/**
 * @file
 * Functional Split ORAM (Section III-D): ONE Path ORAM tree whose
 * every bucket is byte-sliced across all SDIMMs -- slice j of a
 * bucket holds bytes {i : i mod S == j} of each encrypted field, plus
 * its own MAC (the n-fold MAC overhead the paper notes).
 *
 * Per access: FETCH_DATA pulls the path's data pieces into each
 * SDIMM's local stash (still ciphertext); normal reads return the
 * metadata shares + counters to the CPU, which reassembles tags and
 * leaves; FETCH_STASH retrieves just the requested block's pieces;
 * RECEIVE_LIST ships the eviction schedule (stash index -> bucket
 * slot), fresh counters, and new metadata, and the SDIMMs re-encrypt
 * and write their shares back locally.  Only metadata and the one
 * requested block ever cross the CPU channel.
 *
 * Storage: each slice is one flat arena.  Bucket seq's slice image
 * sits at seq * imageBytes and is its metadata share (ceil(16Z/S)
 * bytes) followed by its Z data shares (blockBytes/S bytes each).
 * The slice's piece stash follows the bucket images: stashCapacity
 * data shares, sized once.  The replicated counters and the slice
 * MACs are flat per-bucket arrays beside the arena.  The arena and
 * both arrays are allocated, advised onto transparent huge pages
 * (util::HugePageVector) and only then filled, so a large tree's
 * random bucket reads do not also miss the TLB; a host that refuses
 * the advice keeps base pages and identical behaviour.  The CPU
 * tracks every stashed block, piece- or CPU-resident, in one
 * oram::BasicStash of ShadowEntry records with the same capacity (an
 * overflow panics, as PathOram's stash does) and evicts it by the
 * stash's greedy rule.  A slice MAC binds the identity (bucket seq,
 * slice), the bucket counter, and the whole slice image -- metadata
 * share and every data share -- and is computed over the image where
 * it lies: one Pmmac::tagBatch per path write and one
 * Pmmac::verifyBatch per path read.  A path read first prefetches
 * every uncached bucket's slice images, MACs and counters, then
 * verifies and decodes level by level.  The prefetch is a hint
 * outside the observer: it fires no event, rolls no fault and moves
 * no counter.
 *
 * ORAM cache: the top OramParams::cachedLevels levels never reach the
 * SDIMMs.  The CPU holds both slices of each of their buckets as
 * plaintext slots {addr, leaf, data} in one trusted array (level
 * order, bucketSeqBfs), as oram::PathOram keeps its cached levels.
 * A path read moves their blocks straight into the shadow stash as
 * CPU-resident entries; slice-MAC checks, metadata decoding, piece
 * moves and channel charges cover levels k..L only.  A piece-resident
 * block evicted into a cached bucket is first pulled to the CPU
 * (FETCH_STASH, charged to the channel).  The arenas never hold a
 * cached bucket: its slice images stay unsealed, counter 0.
 *
 * DESIGN.md substitution note: bucket counters are replicated per
 * slice instead of bit-split, letting each SDIMM verify its slice MAC
 * at read time.  Wire sizes are modeled as if split (the timing layer
 * charges the paper's message sizes).
 */

#ifndef SECUREDIMM_SDIMM_SPLIT_ORAM_HH
#define SECUREDIMM_SDIMM_SPLIT_ORAM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "crypto/pmmac.hh"
#include "oram/oram_engine.hh"
#include "oram/oram_params.hh"
#include "oram/stash.hh"
#include "oram/tree_layout.hh"
#include "util/memory_hints.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace secdimm::sdimm
{

/**
 * Byte-interleaving helpers: slice @p slice of @p s owns the bytes
 * {i : i mod s == slice} of @p full.  extractShare copies them into
 * the front of @p share, mergeShare copies them back; both return the
 * share's length in bytes.
 */
std::size_t extractShare(std::span<const std::uint8_t> full,
                         unsigned slice, unsigned s,
                         std::span<std::uint8_t> share);
std::size_t mergeShare(std::span<std::uint8_t> full,
                       std::span<const std::uint8_t> share,
                       unsigned slice, unsigned s);

/** Split ORAM statistics. */
struct SplitOramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t dummyAccesses = 0;
    std::uint64_t integrityFailures = 0;
    /** CPU-channel payload bytes (metadata + fetched pieces + lists). */
    std::uint64_t channelBytes = 0;
    /** Bytes moved only inside SDIMMs (data shuffles). */
    std::uint64_t localBytes = 0;
};

/** Functional S-way Split ORAM. */
class SplitOram final : public oram::OramEngine
{
  public:
    struct Params
    {
        oram::OramParams tree; ///< The (single) full tree.
        unsigned slices = 2;   ///< SDIMM count; divides blockBytes.
    };

    /** CPU-side record of a block held in the SDIMM stashes. */
    struct ShadowEntry
    {
        Addr addr = invalidAddr;
        LeafId leaf = invalidLeaf;
        bool cpuResident = false; ///< Data lives at the CPU (no pieces).
        BlockData data{};         ///< Valid when cpuResident.
        std::size_t stashIdx = 0; ///< Valid when !cpuResident.
        std::uint64_t srcSeq = 0;
        unsigned srcSlot = 0;
        std::uint64_t srcCounter = 0;
    };
    using ShadowStash = oram::BasicStash<ShadowEntry>;

    SplitOram(const Params &params, std::uint64_t seed);

    std::uint64_t capacityBlocks() const
    {
        return params_.tree.capacityBlocks();
    }

    /** accessORAM via the Split protocol. */
    BlockData access(Addr addr, oram::OramOp op,
                     const BlockData *new_data = nullptr) override;

    /**
     * accessORAM with an externally supplied leaf, for the combined
     * INDEP-SPLIT organization where the CPU frontend owns a global
     * PosMap spanning several Split groups.  new_leaf == invalidLeaf
     * removes the block from this group (it is moving to another);
     * the pre-write content is returned either way.
     */
    BlockData accessExplicit(Addr addr, LeafId old_leaf,
                             LeafId new_leaf, oram::OramOp op,
                             const BlockData *new_data = nullptr);

    /**
     * Adopt a block arriving from another group (the APPEND of the
     * Independent dimension): it enters the CPU-side shadow stash and
     * settles into this group's tree on later evictions.
     */
    void adoptBlock(Addr addr, LeafId leaf, const BlockData &data);

    /** Dummy access draining the shadow stash. */
    void backgroundEvict();

    const SplitOramStats &stats() const { return stats_; }
    std::uint64_t accessCount() const override
    {
        return stats_.accesses + stats_.dummyAccesses;
    }
    /** The CPU-side shadow stash (tests and audits walk it). */
    const ShadowStash &shadowStash() const { return shadow_; }
    bool integrityOk() const override
    {
        return stats_.integrityFailures == 0;
    }
    unsigned slices() const { return params_.slices; }

    /** Slice @p slice's stored counter of bucket @p seq (0: never
     *  sealed, as every cached bucket stays). */
    std::uint64_t sliceCounter(unsigned slice, std::uint64_t seq) const
    {
        return slices_.at(slice).counter.at(seq);
    }

    /** Tamper with one slice's stored share (integrity tests).  A
     *  cached bucket has no stored share: asserts. */
    void tamperSlice(unsigned slice, std::uint64_t bucket_seq,
                     unsigned slot, std::size_t byte_index);

    /**
     * Arm fault injection with bounded detect-and-retry (nullptr
     * disarms).  FETCH_DATA slice fetches may be bit-flipped in
     * flight -- the per-slice MAC catches it and the slice is
     * re-fetched (the stored share is intact, so a clean retry
     * succeeds).  RECEIVE_LIST / FETCH_STASH channel transfers may be
     * corrupted, dropped, or delayed on the wire -- re-sends are
     * charged to channelBytes again; the observed leaf sequence is
     * never affected.  An exhausted retry budget counts an integrity
     * failure (fail-stop); no policy applies.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy =
                              fault::DegradationPolicy::RetryThenStop)
        override
    {
        injector_ = inj;
    }

    /** The visible channel: each path's leaf (Read), dummies too. */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        observer_ = fn;
        return 1;
    }

    /**
     * Walk every internal invariant the verify subsystem cannot see
     * from outside (slice MACs, replicated counters, stash-slot
     * bookkeeping, shadow-stash bounds, decrypted bucket placement)
     * and return one description per violation.  @p check_posmap
     * additionally cross-checks block leaves against the internal
     * PosMap -- only meaningful when the tree is driven via access()
     * (accessExplicit frontends own the PosMap themselves).
     * @p checks_run, if given, is incremented per check performed.
     */
    std::vector<std::string>
    auditInvariants(bool check_posmap,
                    std::uint64_t *checks_run = nullptr) const;

    /**
     * Every live block in this group with its leaf -- cached slots,
     * decrypted tree slots and the shadow stash (CPU- or
     * piece-resident).
     * Maintenance-path read used by INDEP-SPLIT group evacuation after
     * a quarantine (the raw slice shares are still readable even when
     * the group's protocol engines are dead, docs/FAULTS.md) and by
     * its placement audit.
     */
    std::vector<oram::StashEntry> residentBlocks() const;

    /** Export access/traffic counters under @p prefix. */
    void
    exportMetrics(util::MetricsRegistry &m,
                  const std::string &prefix) const override
    {
        m.setCounter(prefix + ".accesses", stats_.accesses);
        m.setCounter(prefix + ".dummy_accesses", stats_.dummyAccesses);
        m.setCounter(prefix + ".integrity_failures",
                     stats_.integrityFailures);
        m.setCounter(prefix + ".shadow_stash.max", shadow_.maxSizeSeen());
        m.setGauge(prefix + ".shadow_stash.size",
                   static_cast<double>(shadow_.size()));
        m.setCounter(prefix + ".channel_bytes", stats_.channelBytes);
        m.setCounter(prefix + ".local_bytes", stats_.localBytes);
        m.setGauge(prefix + ".cached_levels",
                   static_cast<double>(params_.tree.cachedLevels));
    }

    /** Fold this group's crypto work into @p t (crypto.* metrics). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        cipher_.collectTotals(t);
        mac_.collectTotals(t);
    }

  private:
    /** One SDIMM's arena (bucket images, then piece stash) + arrays. */
    struct Slice
    {
        util::HugePageVector<std::uint8_t> arena;
        util::HugePageVector<std::uint64_t> counter; ///< [bucket].
        util::HugePageVector<crypto::Tag64> mac; ///< [bucket] slice MAC.
    };

    /** One slot of a cached bucket, held in plaintext at the CPU. */
    struct CachedSlot
    {
        Addr addr = invalidAddr;
        LeafId leaf = invalidLeaf;
        BlockData data{};
    };

    /** One metadata slot as encrypted: 16 bytes, no padding. */
    struct MetaSlot
    {
        Addr addr = invalidAddr;
        LeafId leaf = invalidLeaf;
    };

    /** Buffers reused by every path (no per-access allocation). */
    struct PathScratch
    {
        std::vector<MetaSlot> meta;      ///< One bucket's metadata.
        BlockData block{};               ///< One full block.
        std::vector<std::uint8_t> image; ///< A bit-flipped image copy.
        std::vector<std::uint64_t> seqs; ///< The path's bucket seqs.
        /** (slice, bucket seq) of each queued FETCH_DATA verify. */
        std::vector<std::pair<unsigned, std::uint64_t>> fetched;
        std::vector<crypto::PmmacItem> items;
        std::vector<crypto::Tag64> tags;
        std::unique_ptr<bool[]> ok;
    };

    std::uint64_t metaNonce(std::uint64_t seq) const;
    std::uint64_t dataNonce(std::uint64_t seq, unsigned slot) const;

    /** Arena offsets (the same in every slice). */
    std::size_t imageOff(std::uint64_t seq) const { return seq * imageBytes_; }
    std::size_t dataOff(std::uint64_t seq, unsigned slot) const
    {
        return imageOff(seq) + metaShareBytes_ + slot * shareBytes_;
    }
    std::size_t pieceOff(std::size_t idx) const
    {
        return imageOff(params_.tree.numBuckets()) + idx * shareBytes_;
    }

    /** Slice @p j's MAC input: bucket @p seq's image in the arena. */
    crypto::PmmacItem sliceItem(unsigned j, std::uint64_t seq) const;

    /**
     * One FETCH_DATA attempt of slice @p j of bucket @p seq: the SDIMM
     * checks its image against the stored slice MAC.  A @p flipped
     * image is a bit-flipped copy of the stored one.
     */
    bool verifySlice(unsigned j, std::uint64_t seq, bool flipped);

    /**
     * Account a first FETCH_DATA verdict: a failed verify is re-fetched
     * (one injector roll per attempt) up to the retry budget, and a
     * slice still failing counts an integrity failure.
     */
    void settleSlice(unsigned j, std::uint64_t seq, bool ok);

    /**
     * Charge @p bytes of CPU-channel traffic, retrying through
     * injected wire faults (re-sends recounted) up to the budget.
     */
    void transferChannel(std::size_t bytes, const char *site);

    /** Merge bucket @p seq's metadata shares and decrypt into @p out. */
    void decodeMeta(std::uint64_t seq, MetaSlot *out) const;

    /** Merge the block shares at arena offset @p off and decrypt. */
    BlockData openBlock(std::size_t off, std::uint64_t nonce,
                        std::uint64_t counter) const;
    BlockData openPiece(const ShadowEntry &e) const;

    /**
     * FETCH_STASH: pull piece-resident @p e to the CPU (channel
     * charge), free its piece slot and return its plaintext.
     */
    BlockData fetchStash(const ShadowEntry &e);

    /** The Z trusted slots of cached bucket @p pos. */
    CachedSlot *cachedBucket(const oram::BucketPos &pos)
    {
        return cached_.data() +
               oram::bucketSeqBfs(pos) * params_.tree.bucketBlocks;
    }
    const CachedSlot *cachedBucket(const oram::BucketPos &pos) const
    {
        return const_cast<SplitOram *>(this)->cachedBucket(pos);
    }

    /** Encrypt scratch_.meta / scratch_.block into every slice. */
    void sealMeta(std::uint64_t seq, std::uint64_t counter);
    void sealBlock(std::uint64_t seq, unsigned slot,
                   std::uint64_t counter);

    /** Tag every slice image of buckets @p seqs in one batch. */
    void tagSlices(const std::uint64_t *seqs, std::size_t n);

    /** Steps 1-3 for one path; fills shadow stash from metadata. */
    void readPath(LeafId leaf);

    /** Steps 4.5-6: evict shadow-stash blocks onto the path, each
     *  bucket written by the ShadowStash::evict sink. */
    void writePath(LeafId leaf);

    Params params_;
    oram::TreeLayout layout_;
    crypto::CtrCipher cipher_;
    crypto::Pmmac mac_;
    Rng rng_;

    std::size_t metaBytes_;      ///< Z metadata slots, in bytes.
    std::size_t metaShareBytes_; ///< ceil(metaBytes_ / S).
    std::size_t shareBytes_;     ///< blockBytes / S.
    std::size_t imageBytes_;     ///< One bucket's slice image.

    std::vector<Slice> slices_;
    /** The (2^cachedLevels - 1) * Z slots of the cached buckets. */
    std::vector<CachedSlot> cached_;
    std::vector<LeafId> posMap_;
    ShadowStash shadow_;
    /** Free piece-stash slots, the same in every slice (LIFO). */
    std::vector<std::size_t> freeSlots_;
    PathScratch scratch_;

    TraceEventFn observer_;
    SplitOramStats stats_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_SPLIT_ORAM_HH

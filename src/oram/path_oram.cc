#include "oram/path_oram.hh"

#include <cstring>

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::oram
{

PathOram::PathOram(const OramParams &params,
                   const crypto::Aes128Key &enc_key,
                   const crypto::Aes128Key &mac_key, std::uint64_t seed,
                   std::uint64_t store_salt)
    : params_(params),
      layout_(params.levels, params.linesPerBucket()),
      store_(params.numBuckets(), params.bucketBlocks, enc_key, mac_key,
             store_salt, /*write_dummies=*/false),
      stash_(params.stashCapacity),
      rng_(seed),
      posMap_(params.capacityBlocks()),
      expectedCounter_(params.numBuckets(), 1),
      cached_(((std::uint64_t{1} << params.cachedLevels) - 1) *
              store_.imageBytes()),
      pathImages_((params.levels + 1) * store_.imageBytes())
{
    SD_ASSERT(params_.levels < pathOk_.size());
    SD_ASSERT(params_.cachedLevels <= params_.levels + 1);
    pathSeqs_.reserve(params_.levels + 1);
    // Every bucket starts as the all-dummy image: the uncached levels
    // written once to the store (counter 1), the cached ones in
    // trusted memory, never in the store.  The store walk goes in
    // arena order, skipping the cached seqs: a walk in level order
    // would stride across the whole arena once per level.
    const Bucket empty(params_.bucketBlocks);
    for (std::size_t off = 0; off < cached_.size();
         off += store_.imageBytes())
        empty.toImageInto(cached_.data() + off);
    const std::vector<std::uint64_t> cached_seqs =
        layout_.seqsAbove(params_.cachedLevels);
    auto next_cached = cached_seqs.begin();
    for (std::uint64_t seq = 0; seq < layout_.numBuckets(); ++seq) {
        if (next_cached != cached_seqs.end() && *next_cached == seq) {
            ++next_cached;
            continue;
        }
        store_.writeBucket(seq, empty);
    }
    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(params_.numLeaves());
}

LeafId
PathOram::leafOf(Addr addr) const
{
    SD_ASSERT(addr < posMap_.size());
    return posMap_[addr];
}

BucketReadResult
PathOram::readBucketAt(const BucketPos &pos) const
{
    if (pos.level < params_.cachedLevels) {
        return BucketReadResult{
            Bucket::fromImage(cachedImage(pos), store_.imageBytes(),
                              params_.bucketBlocks),
            true};
    }
    return store_.readBucket(layout_.bucketSeq(pos));
}

bool
PathOram::verifyBucket(std::uint64_t seq, bool authentic,
                       std::uint8_t *image)
{
    bool counter_fresh = store_.counter(seq) == expectedCounter_[seq];
    if (injector_ && (!authentic || !counter_fresh)) {
        /*
         * Detect-and-retry: a transient read flip leaves the stored
         * image intact, so re-reading the same bucket recovers it.
         * Permanent tampering (or a replayed counter) survives every
         * retry and falls through to the fail-stop accounting in
         * readPath.  Each failed verification is one detection,
         * pairing 1:1 with each injected flip, and each granted
         * re-read one recovery (a re-read that flips again is a NEW
         * fault), so the ledger keeps detected == recovered +
         * unrecovered exactly.
         */
        unsigned attempts = 0;
        for (;;) {
            injector_->recordDetected(fault::FaultKind::DramBitFlip);
            if (attempts >= injector_->maxRetries()) {
                injector_->recordUnrecovered(fault::FaultKind::DramBitFlip,
                                             "store.read_path", attempts);
                break;
            }
            ++attempts;
            injector_->recordRecovered(fault::FaultKind::DramBitFlip,
                                       "store.read_path", 1);
            const BucketReadResult r = store_.readBucket(seq);
            authentic = r.authentic;
            counter_fresh = store_.counter(seq) == expectedCounter_[seq];
            if (authentic && counter_fresh) {
                r.bucket.toImageInto(image);
                break;
            }
        }
    }
    return authentic && counter_fresh;
}

void
PathOram::readPath(LeafId leaf)
{
    // The cached levels come straight from trusted memory; one batched
    // read covers the rest of the path: per-bucket observer events and
    // fault rolls still fire top-down inside readBuckets, but MAC
    // verification is a single PMMAC batch.
    const unsigned k = params_.cachedLevels;
    const std::size_t img = store_.imageBytes();
    pathSeqs_.clear();
    for (unsigned level = 0; level <= params_.levels; ++level) {
        const BucketPos pos = pathBucket(leaf, level, params_.levels);
        if (level < k)
            std::memcpy(pathImages_.data() + img * level,
                        cachedImage(pos), img);
        else
            pathSeqs_.push_back(layout_.bucketSeq(pos));
    }
    store_.readBuckets(pathSeqs_.data(), pathSeqs_.size(),
                       pathImages_.data() + img * k, pathOk_.data() + k);

    const unsigned z = params_.bucketBlocks;
    for (unsigned level = 0; level <= params_.levels; ++level) {
        std::uint8_t *image = pathImages_.data() + img * level;
        if (level >= k &&
            !verifyBucket(pathSeqs_[level - k], pathOk_[level], image)) {
            ++stats_.integrityFailures;
            continue;
        }
        const std::uint8_t *data = image + Bucket::metadataBytes(z);
        for (unsigned i = 0; i < z; ++i) {
            Addr addr = invalidAddr;
            std::memcpy(&addr, image + 16 * i, 8);
            if (addr == invalidAddr)
                continue;
            LeafId block_leaf = invalidLeaf;
            BlockData block{};
            std::memcpy(&block_leaf, image + 16 * i + 8, 8);
            std::memcpy(block.data(), data + blockBytes * i, blockBytes);
            if (!stash_.put(addr, block_leaf, block)) {
                panic("stash overflow: capacity %u exceeded while "
                      "reading path to leaf %llu",
                      stash_.capacity(),
                      static_cast<unsigned long long>(leaf));
            }
        }
    }
    stash_.sampleOccupancy();
}

void
PathOram::writePath(LeafId leaf)
{
    // Bottom-up greedy packing maximizes how deep blocks settle; the
    // stash fills the whole path in one pass (leaf first), the
    // encrypt+MAC of the uncached levels runs as one batched store
    // write, and the cached levels go back to trusted memory.
    const unsigned k = params_.cachedLevels;
    const std::size_t img = store_.imageBytes();
    stash_.fillPath(leaf, params_.levels, params_.bucketBlocks,
                    pathImages_.data());
    pathSeqs_.clear();
    for (unsigned level = params_.levels + 1; level-- > 0;) {
        const BucketPos pos = pathBucket(leaf, level, params_.levels);
        if (level >= k)
            pathSeqs_.push_back(layout_.bucketSeq(pos));
        else
            std::memcpy(cachedImage(pos),
                        pathImages_.data() + img * (params_.levels - level),
                        img);
    }
    store_.writeBuckets(pathSeqs_.data(), pathImages_.data(),
                        pathSeqs_.size());
    for (const std::uint64_t seq : pathSeqs_)
        expectedCounter_[seq] = store_.counter(seq);
}

template <typename Update>
BlockData
PathOram::accessPath(Addr addr, LeafId old_leaf, LeafId new_leaf,
                     Update &&update)
{
    ++stats_.accesses;
    readPath(old_leaf);

    // Serve the block (uninitialized blocks read as zero).
    BlockData old_value{};
    if (StashEntry *entry = stash_.find(addr)) {
        old_value = entry->data;
        update(entry->data);
        if (new_leaf == invalidLeaf)
            stash_.erase(addr);
        else
            entry->leaf = new_leaf;
    } else if (new_leaf != invalidLeaf) {
        BlockData fresh{};
        update(fresh);
        if (!stash_.put(addr, new_leaf, fresh))
            panic("stash overflow inserting accessed block");
    }

    writePath(old_leaf);

    // Background eviction keeps the stash comfortably below capacity.
    while (stash_.size() > params_.stashCapacity / 2)
        backgroundEvict();
    return old_value;
}

BlockData
PathOram::access(Addr addr, OramOp op, const BlockData *new_data)
{
    SD_ASSERT(addr < posMap_.size());
    const LeafId leaf = posMap_[addr];
    const LeafId new_leaf = rng_.nextBelow(params_.numLeaves());
    posMap_[addr] = new_leaf;
    return accessExplicit(addr, leaf, new_leaf, op, new_data);
}

BlockData
PathOram::accessExplicit(Addr addr, LeafId old_leaf, LeafId new_leaf,
                         OramOp op, const BlockData *new_data)
{
    SD_ASSERT(old_leaf < params_.numLeaves());
    return accessPath(addr, old_leaf, new_leaf, [&](BlockData &block) {
        if (op == OramOp::Write) {
            SD_ASSERT(new_data != nullptr);
            block = *new_data;
        }
    });
}

BlockData
PathOram::accessMutate(Addr addr, LeafId old_leaf, LeafId new_leaf,
                       const std::function<void(BlockData &)> &mutate)
{
    SD_ASSERT(old_leaf < params_.numLeaves());
    SD_ASSERT(new_leaf < params_.numLeaves());
    return accessPath(addr, old_leaf, new_leaf, mutate);
}

bool
PathOram::adoptBlock(Addr addr, LeafId local_leaf, const BlockData &data)
{
    SD_ASSERT(local_leaf < params_.numLeaves());
    const bool ok = stash_.put(addr, local_leaf, data);
    if (ok && stash_.size() > params_.stashCapacity / 2)
        backgroundEvict();
    return ok;
}

void
PathOram::backgroundEvict()
{
    ++stats_.dummyAccesses;
    const LeafId leaf = rng_.nextBelow(params_.numLeaves());
    readPath(leaf);
    writePath(leaf);
}

void
PathOram::exportMetrics(util::MetricsRegistry &m,
                        const std::string &prefix) const
{
    m.setCounter(prefix + ".accesses", stats_.accesses);
    m.setCounter(prefix + ".dummy_accesses", stats_.dummyAccesses);
    m.setCounter(prefix + ".integrity_failures",
                 stats_.integrityFailures);
    m.setCounter(prefix + ".stash.max", stash_.maxSizeSeen());
    m.setGauge(prefix + ".cached_levels",
               static_cast<double>(params_.cachedLevels));
    m.setGauge(prefix + ".stash.size",
               static_cast<double>(stash_.size()));
    m.histogram(prefix + ".stash.occupancy")
        .merge(stash_.occupancyHistogram());
}

} // namespace secdimm::oram

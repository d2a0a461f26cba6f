#include "sdimm/split_oram.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <numeric>
#include <unordered_set>

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

namespace
{

/** Bytes of a @p full -byte field that slice @p slice of @p s owns. */
std::size_t
shareLen(std::size_t full, unsigned slice, unsigned s)
{
    return full > slice ? (full - slice + s - 1) / s : 0;
}

} // namespace

std::size_t
extractShare(std::span<const std::uint8_t> full, unsigned slice,
             unsigned s, std::span<std::uint8_t> share)
{
    const std::size_t n = shareLen(full.size(), slice, s);
    SD_ASSERT(n <= share.size());
    for (std::size_t k = 0; k < n; ++k)
        share[k] = full[slice + k * s];
    return n;
}

std::size_t
mergeShare(std::span<std::uint8_t> full,
           std::span<const std::uint8_t> share, unsigned slice,
           unsigned s)
{
    const std::size_t n =
        std::min(shareLen(full.size(), slice, s), share.size());
    for (std::size_t k = 0; k < n; ++k)
        full[slice + k * s] = share[k];
    return n;
}

SplitOram::SplitOram(const Params &params, std::uint64_t seed)
    : params_(params),
      layout_(params.tree.levels, params.tree.linesPerBucket()),
      cipher_(crypto::makeKey(0x5b117 ^ seed, 0xe17c ^ (seed << 1))),
      mac_(crypto::makeKey(0x3ac5 ^ seed, 0x91b2 ^ (seed << 2))),
      rng_(seed),
      slices_(params.slices),
      cached_(((std::uint64_t{1} << params.tree.cachedLevels) - 1) *
              params.tree.bucketBlocks),
      posMap_(params.tree.capacityBlocks()),
      shadow_(params.tree.stashCapacity)
{
    SD_ASSERT(params_.slices >= 1);
    SD_ASSERT(blockBytes % params_.slices == 0);
    SD_ASSERT(params_.tree.cachedLevels <= params_.tree.levels + 1);
    const unsigned s = params_.slices;
    const unsigned z = params_.tree.bucketBlocks;
    const std::uint64_t buckets = params_.tree.numBuckets();
    const unsigned stash_slots = params_.tree.stashCapacity;
    static_assert(sizeof(MetaSlot) == 16);
    metaBytes_ = z * sizeof(MetaSlot);
    metaShareBytes_ = shareLen(metaBytes_, 0, s);
    shareBytes_ = blockBytes / s;
    imageBytes_ = metaShareBytes_ + z * shareBytes_;

    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(params_.tree.numLeaves());

    for (auto &sl : slices_) {
        sl.arena.assign(pieceOff(stash_slots), 0);
        sl.counter.assign(buckets, 0);
        sl.mac.assign(buckets, 0);
    }
    // LIFO allocator handing out the lowest never-used slot first.
    freeSlots_.resize(stash_slots);
    std::iota(freeSlots_.rbegin(), freeSlots_.rend(), 0);

    scratch_.image.resize(imageBytes_);
    scratch_.ok.reset(new bool[std::size_t{params_.tree.levels + 1} * s]);

    // Seal every uncached bucket empty (counter 1); the cached ones
    // start as empty trusted slots and are never sealed.  The walk
    // goes in arena order, skipping the cached seqs: a walk in level
    // order would stride across the whole arena once per level.
    const std::vector<std::uint64_t> cached_seqs =
        layout_.seqsAbove(params_.tree.cachedLevels);
    auto next_cached = cached_seqs.begin();
    for (std::uint64_t seq = 0; seq < buckets; ++seq) {
        if (next_cached != cached_seqs.end() && *next_cached == seq) {
            ++next_cached;
            continue;
        }
        scratch_.meta.assign(z, MetaSlot{});
        sealMeta(seq, 1);
        for (unsigned slot = 0; slot < z; ++slot) {
            scratch_.block = BlockData{};
            sealBlock(seq, slot, 1);
        }
        tagSlices(&seq, 1);
    }
}

std::uint64_t
SplitOram::metaNonce(std::uint64_t seq) const
{
    return (seq << 6) | (std::uint64_t{1} << 62);
}

std::uint64_t
SplitOram::dataNonce(std::uint64_t seq, unsigned slot) const
{
    return (seq << 6) | slot | (std::uint64_t{1} << 61);
}

crypto::PmmacItem
SplitOram::sliceItem(unsigned j, std::uint64_t seq) const
{
    const std::uint64_t id = seq | (static_cast<std::uint64_t>(j) << 56);
    return {id, slices_[j].counter[seq],
            slices_[j].arena.data() + imageOff(seq), imageBytes_};
}

bool
SplitOram::verifySlice(unsigned j, std::uint64_t seq, bool flipped)
{
    crypto::PmmacItem it = sliceItem(j, seq);
    if (flipped) {
        std::memcpy(scratch_.image.data(), it.data, imageBytes_);
        injector_->corruptBuffer(scratch_.image.data(), imageBytes_);
        it.data = scratch_.image.data();
    }
    return mac_.verify(it.id, it.counter, it.data, it.len,
                       slices_[j].mac[seq]);
}

void
SplitOram::settleSlice(unsigned j, std::uint64_t seq, bool ok)
{
    if (injector_ && !ok) {
        // Same ledger convention as transferChannel(): one detection
        // per failed verify, one recovery per granted re-fetch (a
        // re-fetch that flips again is a NEW fault), so detected ==
        // recovered + unrecovered.  The stored share is intact, so a
        // clean re-fetch succeeds.
        unsigned attempts = 0;
        for (;;) {
            injector_->recordDetected(fault::FaultKind::DramBitFlip);
            if (attempts >= injector_->maxRetries()) {
                injector_->recordUnrecovered(
                    fault::FaultKind::DramBitFlip, "split.fetch_data",
                    attempts);
                break;
            }
            ++attempts;
            injector_->recordRecovered(fault::FaultKind::DramBitFlip,
                                       "split.fetch_data", 1);
            ok = verifySlice(j, seq, injector_->rollDramBitFlip());
            if (ok)
                break;
        }
    }
    if (!ok)
        ++stats_.integrityFailures;
}

void
SplitOram::transferChannel(std::size_t bytes, const char *site)
{
    stats_.channelBytes += bytes;
    if (!injector_)
        return;
    unsigned attempts = 0;
    for (;;) {
        const fault::WireOutcome w = injector_->rollLinkFault();
        if (w == fault::WireOutcome::Delivered)
            return;
        if (w == fault::WireOutcome::Delayed) {
            // Absorbed by the frontend's polling; no re-send needed.
            injector_->recordDetected(fault::FaultKind::LinkDelay);
            injector_->recordRecovered(fault::FaultKind::LinkDelay,
                                       site, 1);
            return;
        }
        const fault::FaultKind kind = w == fault::WireOutcome::Corrupted
                                          ? fault::FaultKind::LinkCorrupt
                                          : fault::FaultKind::LinkDrop;
        injector_->recordDetected(kind);
        if (attempts >= injector_->maxRetries()) {
            injector_->recordUnrecovered(kind, site, attempts);
            ++stats_.integrityFailures;
            return;
        }
        ++attempts;
        injector_->recordRecovered(kind, site, 1);
        stats_.channelBytes += bytes; // The re-sent copy.
    }
}

void
SplitOram::decodeMeta(std::uint64_t seq, MetaSlot *slots) const
{
    auto *out = reinterpret_cast<std::uint8_t *>(slots);
    for (unsigned j = 0; j < params_.slices; ++j) {
        mergeShare({out, metaBytes_},
                   {slices_[j].arena.data() + imageOff(seq),
                    metaShareBytes_},
                   j, params_.slices);
    }
    cipher_.transformBuffer(out, metaBytes_, metaNonce(seq),
                            slices_[0].counter[seq]);
}

BlockData
SplitOram::openBlock(std::size_t off, std::uint64_t nonce,
                     std::uint64_t counter) const
{
    BlockData out{};
    for (unsigned j = 0; j < params_.slices; ++j) {
        mergeShare(out, {slices_[j].arena.data() + off, shareBytes_}, j,
                   params_.slices);
    }
    cipher_.transformBlock(out, nonce, counter);
    return out;
}

BlockData
SplitOram::openPiece(const ShadowEntry &e) const
{
    return openBlock(pieceOff(e.stashIdx), dataNonce(e.srcSeq, e.srcSlot),
                     e.srcCounter);
}

BlockData
SplitOram::fetchStash(const ShadowEntry &e)
{
    transferChannel(blockBytes, "split.fetch_stash");
    const BlockData data = openPiece(e);
    freeSlots_.push_back(e.stashIdx);
    return data;
}

void
SplitOram::sealMeta(std::uint64_t seq, std::uint64_t counter)
{
    auto *meta = reinterpret_cast<std::uint8_t *>(scratch_.meta.data());
    cipher_.transformBuffer(meta, metaBytes_, metaNonce(seq), counter);
    for (unsigned j = 0; j < params_.slices; ++j) {
        Slice &sl = slices_[j];
        extractShare({meta, metaBytes_}, j, params_.slices,
                     {sl.arena.data() + imageOff(seq), metaShareBytes_});
        sl.counter[seq] = counter;
    }
}

void
SplitOram::sealBlock(std::uint64_t seq, unsigned slot,
                     std::uint64_t counter)
{
    cipher_.transformBlock(scratch_.block, dataNonce(seq, slot), counter);
    for (unsigned j = 0; j < params_.slices; ++j) {
        extractShare(scratch_.block, j, params_.slices,
                     {slices_[j].arena.data() + dataOff(seq, slot),
                      shareBytes_});
    }
}

void
SplitOram::tagSlices(const std::uint64_t *seqs, std::size_t n)
{
    auto &items = scratch_.items;
    items.clear();
    for (std::size_t i = 0; i < n; ++i) {
        for (unsigned j = 0; j < params_.slices; ++j)
            items.push_back(sliceItem(j, seqs[i]));
    }
    scratch_.tags.resize(items.size());
    mac_.tagBatch(items.data(), items.size(), scratch_.tags.data());
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (unsigned j = 0; j < params_.slices; ++j)
            slices_[j].mac[seqs[i]] = scratch_.tags[k++];
    }
}

void
SplitOram::readPath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    auto &items = scratch_.items;
    auto &expected = scratch_.tags;
    auto &fetched = scratch_.fetched;
    items.clear();
    expected.clear();
    fetched.clear();
    for (unsigned level = 0; level <= params_.tree.levels; ++level) {
        const oram::BucketPos pos =
            oram::pathBucket(leaf, level, params_.tree.levels);
        if (level < params_.tree.cachedLevels) {
            // Cached bucket: its blocks are already at the CPU.
            const CachedSlot *bucket = cachedBucket(pos);
            for (unsigned slot = 0; slot < z; ++slot) {
                const CachedSlot &c = bucket[slot];
                if (c.addr != invalidAddr &&
                    !shadow_.put({.addr = c.addr, .leaf = c.leaf,
                                  .cpuResident = true, .data = c.data})) {
                    panic("split shadow stash overflow: capacity %u "
                          "exceeded",
                          shadow_.capacity());
                }
            }
            continue;
        }
        const std::uint64_t seq = layout_.bucketSeq(pos);

        // Each SDIMM verifies its slice MAC (FETCH_DATA step).  With
        // an injector armed the fetched image may carry a transient
        // bit flip.  The injector is rolled per slice in (level,
        // slice) order and a flipped image is verified and re-fetched
        // right away, so the injector's draws keep that order.  The
        // clean images are verified in place, in one batch after the
        // path; a stored image failing there (it was tampered with)
        // is re-fetched after the path's other draws.
        for (unsigned j = 0; j < params_.slices; ++j) {
            if (injector_ && injector_->rollDramBitFlip()) {
                settleSlice(j, seq, verifySlice(j, seq, true));
                continue;
            }
            items.push_back(sliceItem(j, seq));
            expected.push_back(slices_[j].mac[seq]);
            fetched.emplace_back(j, seq);
        }

        // Reassemble counter and metadata at the CPU.
        const std::uint64_t ctr = slices_[0].counter[seq];
        for (unsigned j = 1; j < params_.slices; ++j)
            SD_ASSERT(slices_[j].counter[seq] == ctr);
        decodeMeta(seq, scratch_.meta.data());
        transferChannel(metaBytes_ + 8,
                        "split.fetch_data.meta"); // meta + ctr.

        // Data pieces move into the slice stashes (local traffic).
        for (unsigned slot = 0; slot < z; ++slot) {
            const auto [a, l] = scratch_.meta[slot];
            if (a == invalidAddr)
                continue;
            // A piece slot is free whenever the shadow stash has room:
            // every piece-resident entry holds exactly one.
            const std::size_t held = shadow_.size();
            if (held == shadow_.capacity()) {
                panic("split shadow stash overflow: capacity %u exceeded",
                      shadow_.capacity());
            }
            const std::size_t idx = freeSlots_.back();
            freeSlots_.pop_back();
            for (auto &sl : slices_) {
                std::memcpy(sl.arena.data() + pieceOff(idx),
                            sl.arena.data() + dataOff(seq, slot),
                            shareBytes_);
            }
            stats_.localBytes += blockBytes;
            shadow_.put({.addr = a, .leaf = l, .stashIdx = idx,
                         .srcSeq = seq, .srcSlot = slot, .srcCounter = ctr});
            SD_ASSERT(shadow_.size() == held + 1);
        }
    }

    mac_.verifyBatch(items.data(), items.size(), expected.data(),
                     scratch_.ok.get());
    for (std::size_t i = 0; i < fetched.size(); ++i)
        settleSlice(fetched[i].first, fetched[i].second, scratch_.ok[i]);
}

void
SplitOram::writePath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;
    scratch_.seqs.clear();

    // CPU: the stash's greedy rule picks each bucket's blocks.
    shadow_.evict(leaf, L, z, [&](unsigned level,
                                  std::span<const ShadowEntry *const> fill) {
        const oram::BucketPos pos = oram::pathBucket(leaf, level, L);
        if (level < params_.tree.cachedLevels) {
            // Cached bucket: the CPU keeps the plaintext, pulling in a
            // piece-resident block first.
            CachedSlot *bucket = cachedBucket(pos);
            for (unsigned slot = 0; slot < z; ++slot) {
                if (slot >= fill.size()) {
                    bucket[slot] = CachedSlot{};
                    continue;
                }
                const ShadowEntry &e = *fill[slot];
                bucket[slot] = {e.addr, e.leaf,
                                e.cpuResident ? e.data : fetchStash(e)};
            }
            return;
        }
        const std::uint64_t seq = layout_.bucketSeq(pos);
        scratch_.seqs.push_back(seq);
        const std::uint64_t new_ctr = slices_[0].counter[seq] + 1;

        // CPU composes the new metadata and sends it in RECEIVE_LIST.
        scratch_.meta.assign(z, MetaSlot{});
        for (std::size_t i = 0; i < fill.size(); ++i)
            scratch_.meta[i] = {fill[i]->addr, fill[i]->leaf};
        transferChannel(metaBytes_ + 8 + 4 * z, "split.receive_list");
        sealMeta(seq, new_ctr);

        // Fill the bucket's data slots slice by slice.
        for (unsigned slot = 0; slot < z; ++slot) {
            const bool real = slot < fill.size();
            if (real && !fill[slot]->cpuResident) {
                // Piece-resident block: each SDIMM re-encrypts its
                // share locally (old pad out, new pad in).
                const ShadowEntry &e = *fill[slot];
                scratch_.block = BlockData{};
                cipher_.transformBlock(scratch_.block,
                                       dataNonce(e.srcSeq, e.srcSlot),
                                       e.srcCounter);
                cipher_.transformBlock(scratch_.block, dataNonce(seq, slot),
                                       new_ctr);
                for (unsigned j = 0; j < params_.slices; ++j) {
                    std::uint8_t *arena = slices_[j].arena.data();
                    std::uint8_t *dst = arena + dataOff(seq, slot);
                    const std::uint8_t *piece =
                        arena + pieceOff(e.stashIdx);
                    extractShare(scratch_.block, j, params_.slices,
                                 {dst, shareBytes_});
                    for (std::size_t k = 0; k < shareBytes_; ++k)
                        dst[k] ^= piece[k];
                }
                stats_.localBytes += blockBytes;
                freeSlots_.push_back(e.stashIdx);
                continue;
            }
            // CPU-resident block: the CPU encrypts for the destination
            // and ships each slice its share.  Dummy slot: each SDIMM
            // writes its share of an encrypted zero block.
            scratch_.block = real ? fill[slot]->data : BlockData{};
            sealBlock(seq, slot, new_ctr);
            if (real)
                transferChannel(blockBytes, "split.receive_list");
            else
                stats_.localBytes += blockBytes;
        }
    });

    // Fresh slice MACs for the path's uncached buckets.
    tagSlices(scratch_.seqs.data(), scratch_.seqs.size());
}

BlockData
SplitOram::access(Addr addr, oram::OramOp op, const BlockData *new_data)
{
    SD_ASSERT(addr < posMap_.size());
    const LeafId leaf = posMap_[addr];
    const LeafId new_leaf = rng_.nextBelow(params_.tree.numLeaves());
    posMap_[addr] = new_leaf;
    return accessExplicit(addr, leaf, new_leaf, op, new_data);
}

BlockData
SplitOram::accessExplicit(Addr addr, LeafId old_leaf, LeafId new_leaf,
                          oram::OramOp op, const BlockData *new_data)
{
    SD_ASSERT(old_leaf < params_.tree.numLeaves());
    ++stats_.accesses;
    if (observer_)
        observer_(TraceEventKind::Read, old_leaf);

    readPath(old_leaf);

    const bool remove = new_leaf == invalidLeaf;
    const bool write = op == oram::OramOp::Write && !remove;
    SD_ASSERT(!write || new_data != nullptr);
    ShadowEntry *e = shadow_.find(addr);
    if (e == nullptr && !remove) {
        // Uninitialized block: materialize at the CPU.
        if (!shadow_.put({.addr = addr, .cpuResident = true}))
            panic("split shadow stash overflow inserting accessed block");
        e = shadow_.find(addr);
    }
    BlockData old_value{};
    if (e != nullptr) {
        if (!e->cpuResident) {
            e->data = fetchStash(*e);
            e->cpuResident = true;
        }
        old_value = e->data;
        e->leaf = new_leaf;
        if (write)
            e->data = *new_data;
        if (remove)
            shadow_.erase(addr);
    }

    writePath(old_leaf);

    while (shadow_.size() > params_.tree.stashCapacity / 2)
        backgroundEvict();

    return old_value;
}

void
SplitOram::adoptBlock(Addr addr, LeafId leaf, const BlockData &data)
{
    SD_ASSERT(leaf < params_.tree.numLeaves());
    SD_ASSERT(shadow_.find(addr) == nullptr);
    if (!shadow_.put({.addr = addr, .leaf = leaf, .cpuResident = true,
                      .data = data}))
        panic("split shadow stash overflow adopting block %llu",
              static_cast<unsigned long long>(addr));
    while (shadow_.size() > params_.tree.stashCapacity / 2)
        backgroundEvict();
}

void
SplitOram::backgroundEvict()
{
    ++stats_.dummyAccesses;
    const LeafId leaf = rng_.nextBelow(params_.tree.numLeaves());
    if (observer_)
        observer_(TraceEventKind::Read, leaf);
    readPath(leaf);
    writePath(leaf);
}

std::vector<std::string>
SplitOram::auditInvariants(bool check_posmap,
                           std::uint64_t *checks_run) const
{
    std::vector<std::string> violations;
    std::uint64_t checks = 0;
    // One check: the message parts are streamed only on a violation.
    const auto check = [&](bool ok, const auto &...what) {
        ++checks;
        if (!ok) {
            std::ostringstream os;
            (os << ... << what);
            violations.push_back(os.str());
        }
    };

    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;
    const unsigned k = params_.tree.cachedLevels;
    const unsigned cap = params_.tree.stashCapacity;
    const std::uint64_t buckets = params_.tree.numBuckets();

    // 1. Storage shape: per-slice arenas and arrays, the cached slots.
    for (unsigned j = 0; j < params_.slices; ++j) {
        const Slice &sl = slices_[j];
        check(sl.arena.size() == pieceOff(cap) &&
                  sl.counter.size() == buckets && sl.mac.size() == buckets,
              "slice ", j, ": storage not sized to ", buckets,
              " buckets and ", cap, " stash slots");
    }
    check(cached_.size() == ((std::uint64_t{1} << k) - 1) * z,
          "cached slots not sized to ", k, " levels");

    // 2. Walk every bucket.  An uncached one has replicated counters
    //    and valid slice MACs; a cached one was never sealed into any
    //    slice.  Placement: a real block stored at (level, index)
    //    must have a leaf whose path passes through that bucket, and
    //    no address may appear twice (tree or shadow stash).
    std::unordered_set<Addr> seen;
    std::vector<MetaSlot> meta(z);
    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const oram::BucketPos pos{level, index};
            const std::uint64_t seq = layout_.bucketSeq(pos);
            for (unsigned j = 0; j < params_.slices; ++j) {
                const Slice &sl = slices_[j];
                if (level < k) {
                    check(sl.counter[seq] == 0, "cached bucket ", seq,
                          ": sealed into slice ", j);
                    continue;
                }
                check(sl.counter[seq] == slices_[0].counter[seq],
                      "bucket ", seq, ": slice ", j,
                      " counter diverges from slice 0");
                const crypto::PmmacItem it = sliceItem(j, seq);
                check(mac_.verify(it.id, it.counter, it.data, it.len,
                                  sl.mac[seq]),
                      "bucket ", seq, ": slice ", j,
                      " MAC mismatch (tampered or stale)");
            }
            if (level < k) {
                const CachedSlot *bucket = cachedBucket(pos);
                for (unsigned slot = 0; slot < z; ++slot)
                    meta[slot] = {bucket[slot].addr, bucket[slot].leaf};
            } else {
                decodeMeta(seq, meta.data());
            }
            for (unsigned slot = 0; slot < z; ++slot) {
                const auto [a, l] = meta[slot];
                if (a == invalidAddr)
                    continue;
                check(l < params_.tree.numLeaves(), "bucket ", seq,
                      " slot ", slot, ": block ", a, " has leaf ", l,
                      " out of range");
                check(l >= params_.tree.numLeaves() ||
                          oram::pathBucket(l, level, L).index == index,
                      "bucket (", level, ",", index, "): block ", a,
                      " leaf ", l, " path does not pass through it");
                check(seen.insert(a).second, "block ", a,
                      " stored twice in the tree");
                if (check_posmap) {
                    check(a < posMap_.size() && posMap_[a] == l, "block ",
                          a, ": tree leaf ", l, " disagrees with PosMap");
                }
            }
        }
    }

    // 3. Shadow stash: bounded, leaves in range, piece-resident
    //    entries backed by a piece in EVERY slice, no tree duplicate.
    check(shadow_.size() <= cap, "shadow stash ", shadow_.size(),
          " exceeds capacity ", cap);
    std::unordered_set<std::size_t> referenced;
    for (const ShadowEntry &e : shadow_.entries()) {
        check(e.leaf < params_.tree.numLeaves(), "shadow block ", e.addr,
              ": leaf ", e.leaf, " out of range");
        check(seen.insert(e.addr).second, "block ", e.addr,
              " in both tree and shadow stash");
        if (check_posmap) {
            check(e.addr < posMap_.size() && posMap_[e.addr] == e.leaf,
                  "shadow block ", e.addr, ": leaf ", e.leaf,
                  " disagrees with PosMap");
        }
        if (!e.cpuResident) {
            check(e.stashIdx < cap && referenced.insert(e.stashIdx).second,
                  "shadow block ", e.addr, ": bad or shared stash slot ",
                  e.stashIdx);
        }
    }

    // 4. Stash-slot allocator: every slot is either free or referenced
    //    by exactly one piece-resident shadow entry.
    for (std::size_t idx : freeSlots_) {
        check(idx < cap && referenced.find(idx) == referenced.end(),
              "stash slot ", idx, " both free and in use");
    }
    check(referenced.size() + freeSlots_.size() == cap,
          "stash slots leaked: ", referenced.size(), " in use + ",
          freeSlots_.size(), " free != ", cap);

    if (checks_run != nullptr)
        *checks_run += checks;
    return violations;
}

void
SplitOram::tamperSlice(unsigned slice, std::uint64_t bucket_seq,
                       unsigned slot, std::size_t byte_index)
{
    SD_ASSERT(bucket_seq < params_.tree.numBuckets() &&
              slot < params_.tree.bucketBlocks && byte_index < shareBytes_);
    // Only a cached bucket is never sealed.
    SD_ASSERT(slices_.at(slice).counter[bucket_seq] != 0);
    slices_.at(slice).arena[dataOff(bucket_seq, slot) + byte_index] ^=
        0x01;
}

std::vector<oram::StashEntry>
SplitOram::residentBlocks() const
{
    std::vector<oram::StashEntry> out;
    for (const CachedSlot &c : cached_) {
        if (c.addr != invalidAddr)
            out.push_back({c.addr, c.leaf, c.data});
    }
    std::vector<MetaSlot> meta(params_.tree.bucketBlocks);
    const unsigned L = params_.tree.levels;
    for (unsigned level = params_.tree.cachedLevels; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const std::uint64_t seq =
                layout_.bucketSeq({level, index});
            decodeMeta(seq, meta.data());
            for (unsigned slot = 0; slot < params_.tree.bucketBlocks;
                 ++slot) {
                const auto [a, l] = meta[slot];
                if (a == invalidAddr)
                    continue;
                out.push_back({a, l,
                               openBlock(dataOff(seq, slot),
                                         dataNonce(seq, slot),
                                         slices_[0].counter[seq])});
            }
        }
    }
    for (const ShadowEntry &e : shadow_.entries()) {
        out.push_back(
            {e.addr, e.leaf, e.cpuResident ? e.data : openPiece(e)});
    }
    return out;
}

} // namespace secdimm::sdimm

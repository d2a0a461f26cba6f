#include "sdimm/split_oram.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

namespace
{

/** Metadata plaintext for up to Z (addr, leaf) pairs. */
std::vector<std::uint8_t>
buildMeta(unsigned z,
          const std::vector<std::pair<Addr, LeafId>> &blocks)
{
    std::vector<std::uint8_t> meta(static_cast<std::size_t>(z) * 16);
    for (unsigned i = 0; i < z; ++i) {
        Addr a = invalidAddr;
        LeafId l = invalidLeaf;
        if (i < blocks.size()) {
            a = blocks[i].first;
            l = blocks[i].second;
        }
        std::memcpy(meta.data() + 16 * i, &a, 8);
        std::memcpy(meta.data() + 16 * i + 8, &l, 8);
    }
    return meta;
}

} // namespace

std::vector<std::uint8_t>
extractShare(const std::vector<std::uint8_t> &full, unsigned slice,
             unsigned s)
{
    std::vector<std::uint8_t> share;
    share.reserve(full.size() / s + 1);
    for (std::size_t i = slice; i < full.size(); i += s)
        share.push_back(full[i]);
    return share;
}

void
mergeShare(std::vector<std::uint8_t> &full,
           const std::vector<std::uint8_t> &share, unsigned slice,
           unsigned s)
{
    std::size_t k = 0;
    for (std::size_t i = slice; i < full.size() && k < share.size();
         i += s, ++k) {
        full[i] = share[k];
    }
}

SplitOram::SplitOram(const Params &params, std::uint64_t seed)
    : params_(params),
      layout_(params.tree.levels, params.tree.linesPerBucket()),
      cipher_(crypto::makeKey(0x5b117 ^ seed, 0xe17c ^ (seed << 1))),
      mac_(crypto::makeKey(0x3ac5 ^ seed, 0x91b2 ^ (seed << 2))),
      rng_(seed),
      slices_(params.slices),
      posMap_(params.tree.capacityBlocks())
{
    SD_ASSERT(params_.slices >= 1);
    SD_ASSERT(blockBytes % params_.slices == 0);
    const std::uint64_t buckets = params_.tree.numBuckets();
    const unsigned z = params_.tree.bucketBlocks;

    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(params_.tree.numLeaves());

    for (auto &sl : slices_) {
        sl.metaShare.resize(buckets);
        sl.dataShare.resize(buckets);
        sl.counter.assign(buckets, 0);
        sl.mac.assign(buckets, 0);
        for (auto &d : sl.dataShare)
            d.resize(z);
    }

    // Initialize every bucket empty.
    const std::vector<std::uint8_t> meta_plain = buildMeta(z, {});
    const std::vector<std::uint8_t> zero_block(blockBytes, 0);
    for (std::uint64_t seq = 0; seq < buckets; ++seq) {
        const std::uint64_t ctr = 1;
        std::vector<std::uint8_t> meta_cipher = meta_plain;
        cipher_.transformBuffer(meta_cipher.data(), meta_cipher.size(),
                                metaNonce(seq), ctr);
        std::vector<std::vector<std::uint8_t>> slot_cipher(z);
        for (unsigned s = 0; s < z; ++s) {
            slot_cipher[s] = zero_block;
            cipher_.transformBuffer(slot_cipher[s].data(), blockBytes,
                                    dataNonce(seq, s), ctr);
        }
        for (unsigned j = 0; j < params_.slices; ++j) {
            Slice &sl = slices_[j];
            sl.metaShare[seq] =
                extractShare(meta_cipher, j, params_.slices);
            for (unsigned s = 0; s < z; ++s) {
                sl.dataShare[seq][s] =
                    extractShare(slot_cipher[s], j, params_.slices);
            }
            sl.counter[seq] = ctr;
            sl.mac[seq] = sliceMac(j, seq, sl);
        }
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

std::vector<std::uint8_t>
SplitOram::ctrPad(std::uint64_t nonce, std::uint64_t counter,
                  std::size_t len) const
{
    std::vector<std::uint8_t> pad(len, 0);
    cipher_.transformBuffer(pad.data(), len, nonce, counter);
    return pad;
}

std::size_t
SplitOram::gatherSlice(const Slice &sl, std::uint64_t seq) const
{
    std::size_t total = sl.metaShare[seq].size();
    for (const auto &share : sl.dataShare[seq])
        total += share.size();
    macScratch_.resize(total);
    std::uint8_t *dst = macScratch_.data();
    std::memcpy(dst, sl.metaShare[seq].data(), sl.metaShare[seq].size());
    dst += sl.metaShare[seq].size();
    for (const auto &share : sl.dataShare[seq]) {
        std::memcpy(dst, share.data(), share.size());
        dst += share.size();
    }
    return total;
}

crypto::Tag64
SplitOram::sliceMac(unsigned slice, std::uint64_t seq,
                    const Slice &sl) const
{
    const std::size_t total = gatherSlice(sl, seq);
    const std::uint64_t id =
        seq | (static_cast<std::uint64_t>(slice) << 56);
    return mac_.tag(id, sl.counter[seq], macScratch_.data(), total);
}

bool
SplitOram::fetchAndVerifySlice(unsigned j, std::uint64_t seq) const
{
    const Slice &sl = slices_[j];
    const std::size_t total = gatherSlice(sl, seq);
    if (injector_ && injector_->rollDramBitFlip())
        injector_->corruptBuffer(macScratch_.data(), total);
    const std::uint64_t id =
        seq | (static_cast<std::uint64_t>(j) << 56);
    return mac_.tag(id, sl.counter[seq], macScratch_.data(), total) ==
           sl.mac[seq];
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

std::size_t
SplitOram::allocStashSlot()
{
    if (!freeSlots_.empty()) {
        const std::size_t idx = freeSlots_.back();
        freeSlots_.pop_back();
        return idx;
    }
    const std::size_t idx = stashSlots_++;
    for (auto &sl : slices_)
        sl.stash.resize(stashSlots_);
    return idx;
}

void
SplitOram::freeStashSlot(std::size_t idx)
{
    for (auto &sl : slices_)
        sl.stash[idx].reset();
    freeSlots_.push_back(idx);
}

void
SplitOram::readPath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    for (unsigned level = 0; level <= params_.tree.levels; ++level) {
        const std::uint64_t seq = layout_.bucketSeq(
            oram::pathBucket(leaf, level, params_.tree.levels));

        // Each SDIMM verifies its slice MAC (FETCH_DATA step).  With
        // an injector armed the fetched image may carry a transient
        // bit flip; the MAC catches it and the slice is re-fetched
        // from the (intact) stored share up to the retry budget.
        for (unsigned j = 0; j < params_.slices; ++j) {
            bool ok = fetchAndVerifySlice(j, seq);
            if (injector_ && !ok) {
                // Same ledger convention as transferChannel(): one
                // detection per failed verify, one recovery per
                // granted re-fetch (a re-fetch that flips again is a
                // NEW fault), so detected == recovered + unrecovered.
                unsigned attempts = 0;
                for (;;) {
                    injector_->recordDetected(
                        fault::FaultKind::DramBitFlip);
                    if (attempts >= injector_->maxRetries()) {
                        injector_->recordUnrecovered(
                            fault::FaultKind::DramBitFlip,
                            "split.fetch_data", attempts);
                        break;
                    }
                    ++attempts;
                    injector_->recordRecovered(
                        fault::FaultKind::DramBitFlip,
                        "split.fetch_data", 1);
                    ok = fetchAndVerifySlice(j, seq);
                    if (ok)
                        break;
                }
            }
            if (!ok)
                ++stats_.integrityFailures;
        }

        // Reassemble counter and metadata at the CPU.
        const std::uint64_t ctr = slices_[0].counter[seq];
        for (unsigned j = 1; j < params_.slices; ++j)
            SD_ASSERT(slices_[j].counter[seq] == ctr);

        std::vector<std::uint8_t> meta_cipher(
            static_cast<std::size_t>(z) * 16, 0);
        for (unsigned j = 0; j < params_.slices; ++j) {
            mergeShare(meta_cipher, slices_[j].metaShare[seq], j,
                       params_.slices);
        }
        transferChannel(meta_cipher.size() + 8,
                        "split.fetch_data.meta"); // meta + ctr.
        cipher_.transformBuffer(meta_cipher.data(), meta_cipher.size(),
                                metaNonce(seq), ctr);

        // Data pieces move into the slice stashes (local traffic).
        for (unsigned slot = 0; slot < z; ++slot) {
            Addr a;
            LeafId l;
            std::memcpy(&a, meta_cipher.data() + 16 * slot, 8);
            std::memcpy(&l, meta_cipher.data() + 16 * slot + 8, 8);
            if (a == invalidAddr)
                continue;
            SD_ASSERT(shadow_.find(a) == shadow_.end());
            const std::size_t idx = allocStashSlot();
            for (unsigned j = 0; j < params_.slices; ++j) {
                Slice &sl = slices_[j];
                sl.stash[idx] = SlicePiece{sl.dataShare[seq][slot], seq,
                                           slot, ctr};
            }
            stats_.localBytes += blockBytes;
            ShadowEntry e;
            e.leaf = l;
            e.cpuResident = false;
            e.stashIdx = idx;
            e.srcSeq = seq;
            e.srcSlot = slot;
            e.srcCounter = ctr;
            shadow_.emplace(a, e);
        }
    }
    stats_.maxShadowStash =
        std::max(stats_.maxShadowStash, shadow_.size());
}

BlockData
SplitOram::fetchStash(const ShadowEntry &e)
{
    SD_ASSERT(!e.cpuResident);
    std::vector<std::uint8_t> merged(blockBytes, 0);
    for (unsigned j = 0; j < params_.slices; ++j) {
        const auto &piece = slices_[j].stash[e.stashIdx];
        SD_ASSERT(piece.has_value());
        mergeShare(merged, piece->cipher, j, params_.slices);
    }
    transferChannel(blockBytes, "split.fetch_stash");
    cipher_.transformBuffer(merged.data(), merged.size(),
                            dataNonce(e.srcSeq, e.srcSlot),
                            e.srcCounter);
    BlockData out{};
    std::memcpy(out.data(), merged.data(), blockBytes);
    return out;
}

void
SplitOram::writePath(LeafId leaf)
{
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;

    for (int level = static_cast<int>(L); level >= 0; --level) {
        const unsigned shift = L - static_cast<unsigned>(level);
        const std::uint64_t bucket_index = leaf >> shift;
        const std::uint64_t seq = layout_.bucketSeq(oram::pathBucket(
            leaf, static_cast<unsigned>(level), L));

        // CPU: pick up to Z compatible shadow-stash blocks.
        std::vector<std::pair<Addr, ShadowEntry>> chosen;
        for (auto it = shadow_.begin();
             it != shadow_.end() && chosen.size() < z;) {
            if ((it->second.leaf >> shift) == bucket_index) {
                chosen.emplace_back(it->first, it->second);
                it = shadow_.erase(it);
            } else {
                ++it;
            }
        }

        const std::uint64_t new_ctr = slices_[0].counter[seq] + 1;

        // CPU composes the new metadata and sends it in RECEIVE_LIST.
        std::vector<std::pair<Addr, LeafId>> meta_blocks;
        for (const auto &kv : chosen)
            meta_blocks.emplace_back(kv.first, kv.second.leaf);
        std::vector<std::uint8_t> meta_cipher =
            buildMeta(z, meta_blocks);
        transferChannel(meta_cipher.size() + 8 + 4 * z,
                        "split.receive_list");
        cipher_.transformBuffer(meta_cipher.data(), meta_cipher.size(),
                                metaNonce(seq), new_ctr);

        // Fill the bucket's data slots slice by slice.
        for (unsigned slot = 0; slot < z; ++slot) {
            if (slot < chosen.size() && chosen[slot].second.cpuResident) {
                // CPU-resident block: the CPU encrypts for the
                // destination and ships each slice its share.
                const ShadowEntry &e = chosen[slot].second;
                std::vector<std::uint8_t> full(
                    e.data.begin(), e.data.end());
                cipher_.transformBuffer(full.data(), full.size(),
                                        dataNonce(seq, slot), new_ctr);
                transferChannel(blockBytes, "split.receive_list");
                for (unsigned j = 0; j < params_.slices; ++j) {
                    slices_[j].dataShare[seq][slot] =
                        extractShare(full, j, params_.slices);
                }
            } else if (slot < chosen.size()) {
                // Piece-resident block: each SDIMM re-encrypts its
                // share locally (old pad out, new pad in).
                const ShadowEntry &e = chosen[slot].second;
                const auto old_pad =
                    ctrPad(dataNonce(e.srcSeq, e.srcSlot), e.srcCounter,
                           blockBytes);
                const auto new_pad =
                    ctrPad(dataNonce(seq, slot), new_ctr, blockBytes);
                for (unsigned j = 0; j < params_.slices; ++j) {
                    Slice &sl = slices_[j];
                    const auto &piece = sl.stash[e.stashIdx];
                    SD_ASSERT(piece.has_value());
                    std::vector<std::uint8_t> share = piece->cipher;
                    for (std::size_t k = 0; k < share.size(); ++k) {
                        const std::size_t gi = j + params_.slices * k;
                        share[k] = static_cast<std::uint8_t>(
                            share[k] ^ old_pad[gi] ^ new_pad[gi]);
                    }
                    sl.dataShare[seq][slot] = std::move(share);
                }
                stats_.localBytes += blockBytes;
                freeStashSlot(e.stashIdx);
            } else {
                // Dummy slot: each SDIMM writes its share of an
                // encrypted zero block.
                std::vector<std::uint8_t> zero(blockBytes, 0);
                cipher_.transformBuffer(zero.data(), zero.size(),
                                        dataNonce(seq, slot), new_ctr);
                for (unsigned j = 0; j < params_.slices; ++j) {
                    slices_[j].dataShare[seq][slot] =
                        extractShare(zero, j, params_.slices);
                }
                stats_.localBytes += blockBytes;
            }
        }

        // Commit metadata, counter, and fresh slice MACs.
        for (unsigned j = 0; j < params_.slices; ++j) {
            Slice &sl = slices_[j];
            sl.metaShare[seq] =
                extractShare(meta_cipher, j, params_.slices);
            sl.counter[seq] = new_ctr;
            sl.mac[seq] = sliceMac(j, seq, sl);
        }
    }
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
    auto it = shadow_.find(addr);
    BlockData old_value{};
    if (it == shadow_.end()) {
        if (!remove) {
            // Uninitialized block: materialize at the CPU.
            ShadowEntry e;
            e.leaf = new_leaf;
            e.cpuResident = true;
            it = shadow_.emplace(addr, e).first;
        }
    } else {
        ShadowEntry &e = it->second;
        if (!e.cpuResident) {
            old_value = fetchStash(e);
            freeStashSlot(e.stashIdx);
            e.cpuResident = true;
            e.data = old_value;
        } else {
            old_value = e.data;
        }
        e.leaf = new_leaf;
    }
    if (op == oram::OramOp::Write && it != shadow_.end() && !remove) {
        SD_ASSERT(new_data != nullptr);
        it->second.data = *new_data;
    }
    if (remove && it != shadow_.end())
        shadow_.erase(it);

    writePath(old_leaf);

    while (shadow_.size() > params_.tree.stashCapacity / 2)
        backgroundEvict();

    return old_value;
}

void
SplitOram::adoptBlock(Addr addr, LeafId leaf, const BlockData &data)
{
    SD_ASSERT(leaf < params_.tree.numLeaves());
    SD_ASSERT(shadow_.find(addr) == shadow_.end());
    ShadowEntry e;
    e.leaf = leaf;
    e.cpuResident = true;
    e.data = data;
    shadow_.emplace(addr, e);
    stats_.maxShadowStash =
        std::max(stats_.maxShadowStash, shadow_.size());
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
    const auto fail = [&](const std::string &what) {
        violations.push_back(what);
    };
    const auto check = [&](bool ok, auto &&describe) {
        ++checks;
        if (!ok)
            fail(describe());
    };

    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;
    const std::uint64_t buckets = params_.tree.numBuckets();

    // 1. Per-slice storage shape, replicated counters, slice MACs.
    for (unsigned j = 0; j < params_.slices; ++j) {
        const Slice &sl = slices_[j];
        check(sl.metaShare.size() == buckets && sl.dataShare.size() == buckets &&
                  sl.counter.size() == buckets && sl.mac.size() == buckets,
              [&] {
                  std::ostringstream os;
                  os << "slice " << j << ": storage vectors not sized to "
                     << buckets << " buckets";
                  return os.str();
              });
        check(sl.stash.size() == stashSlots_, [&] {
            std::ostringstream os;
            os << "slice " << j << ": stash has " << sl.stash.size()
               << " slots, allocator says " << stashSlots_;
            return os.str();
        });
        for (std::uint64_t seq = 0; seq < buckets; ++seq) {
            check(sl.counter[seq] == slices_[0].counter[seq], [&] {
                std::ostringstream os;
                os << "bucket " << seq << ": slice " << j
                   << " counter diverges from slice 0";
                return os.str();
            });
            check(sliceMac(j, seq, sl) == sl.mac[seq], [&] {
                std::ostringstream os;
                os << "bucket " << seq << ": slice " << j
                   << " MAC mismatch (tampered or stale)";
                return os.str();
            });
        }
    }

    // 2. Decrypt every bucket's metadata and check placement: a real
    //    block stored at (level, index) must have a leaf whose path
    //    passes through that bucket, and no address may appear twice
    //    (tree or shadow stash).
    std::unordered_set<Addr> seen;
    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const oram::BucketPos pos{level, index};
            const std::uint64_t seq = layout_.bucketSeq(pos);
            std::vector<std::uint8_t> meta(
                static_cast<std::size_t>(z) * 16, 0);
            for (unsigned j = 0; j < params_.slices; ++j)
                mergeShare(meta, slices_[j].metaShare[seq], j,
                           params_.slices);
            cipher_.transformBuffer(meta.data(), meta.size(),
                                    metaNonce(seq),
                                    slices_[0].counter[seq]);
            for (unsigned slot = 0; slot < z; ++slot) {
                Addr a;
                LeafId l;
                std::memcpy(&a, meta.data() + 16 * slot, 8);
                std::memcpy(&l, meta.data() + 16 * slot + 8, 8);
                if (a == invalidAddr)
                    continue;
                check(l < params_.tree.numLeaves(), [&] {
                    std::ostringstream os;
                    os << "bucket " << seq << " slot " << slot
                       << ": block " << a << " has leaf " << l
                       << " out of range";
                    return os.str();
                });
                check(l >= params_.tree.numLeaves() ||
                          oram::pathBucket(l, level, L).index == index,
                      [&] {
                          std::ostringstream os;
                          os << "bucket (" << level << "," << index
                             << "): block " << a << " leaf " << l
                             << " path does not pass through it";
                          return os.str();
                      });
                check(seen.insert(a).second, [&] {
                    std::ostringstream os;
                    os << "block " << a
                       << " stored twice in the tree";
                    return os.str();
                });
                if (check_posmap) {
                    check(a < posMap_.size() && posMap_[a] == l, [&] {
                        std::ostringstream os;
                        os << "block " << a << ": tree leaf " << l
                           << " disagrees with PosMap";
                        return os.str();
                    });
                }
            }
        }
    }

    // 3. Shadow stash: bounded, leaves in range, piece-resident
    //    entries backed by a piece in EVERY slice, no tree duplicate.
    check(shadow_.size() <= params_.tree.stashCapacity, [&] {
        std::ostringstream os;
        os << "shadow stash " << shadow_.size() << " exceeds capacity "
           << params_.tree.stashCapacity;
        return os.str();
    });
    std::unordered_set<std::size_t> referenced;
    for (const auto &kv : shadow_) {
        const Addr a = kv.first;
        const ShadowEntry &e = kv.second;
        check(e.leaf < params_.tree.numLeaves(), [&] {
            std::ostringstream os;
            os << "shadow block " << a << ": leaf " << e.leaf
               << " out of range";
            return os.str();
        });
        check(seen.insert(a).second, [&] {
            std::ostringstream os;
            os << "block " << a << " in both tree and shadow stash";
            return os.str();
        });
        if (check_posmap) {
            check(a < posMap_.size() && posMap_[a] == e.leaf, [&] {
                std::ostringstream os;
                os << "shadow block " << a << ": leaf " << e.leaf
                   << " disagrees with PosMap";
                return os.str();
            });
        }
        if (!e.cpuResident) {
            check(e.stashIdx < stashSlots_ &&
                      referenced.insert(e.stashIdx).second,
                  [&] {
                      std::ostringstream os;
                      os << "shadow block " << a
                         << ": bad or shared stash slot " << e.stashIdx;
                      return os.str();
                  });
            for (unsigned j = 0; j < params_.slices; ++j) {
                check(e.stashIdx < slices_[j].stash.size() &&
                          slices_[j].stash[e.stashIdx].has_value(),
                      [&] {
                          std::ostringstream os;
                          os << "shadow block " << a << ": slice " << j
                             << " missing its stash piece";
                          return os.str();
                      });
            }
        }
    }

    // 4. Stash-slot allocator: every slot is either free or referenced
    //    by exactly one piece-resident shadow entry.
    for (std::size_t idx : freeSlots_) {
        check(idx < stashSlots_ && referenced.find(idx) == referenced.end(),
              [&] {
                  std::ostringstream os;
                  os << "stash slot " << idx << " both free and in use";
                  return os.str();
              });
    }
    check(referenced.size() + freeSlots_.size() == stashSlots_, [&] {
        std::ostringstream os;
        os << "stash slots leaked: " << referenced.size() << " in use + "
           << freeSlots_.size() << " free != " << stashSlots_;
        return os.str();
    });

    if (checks_run != nullptr)
        *checks_run += checks;
    return violations;
}

void
SplitOram::tamperSlice(unsigned slice, std::uint64_t bucket_seq,
                       unsigned slot, std::size_t byte_index)
{
    slices_.at(slice).dataShare.at(bucket_seq).at(slot).at(byte_index) ^=
        0x01;
}

std::vector<oram::StashEntry>
SplitOram::residentBlocks() const
{
    std::vector<oram::StashEntry> out;
    const unsigned z = params_.tree.bucketBlocks;
    const unsigned L = params_.tree.levels;
    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t level_width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < level_width; ++index) {
            const std::uint64_t seq =
                layout_.bucketSeq({level, index});
            const std::uint64_t ctr = slices_[0].counter[seq];
            std::vector<std::uint8_t> meta(
                static_cast<std::size_t>(z) * 16, 0);
            for (unsigned j = 0; j < params_.slices; ++j)
                mergeShare(meta, slices_[j].metaShare[seq], j,
                           params_.slices);
            cipher_.transformBuffer(meta.data(), meta.size(),
                                    metaNonce(seq), ctr);
            for (unsigned slot = 0; slot < z; ++slot) {
                Addr a;
                LeafId l;
                std::memcpy(&a, meta.data() + 16 * slot, 8);
                std::memcpy(&l, meta.data() + 16 * slot + 8, 8);
                if (a == invalidAddr)
                    continue;
                std::vector<std::uint8_t> merged(blockBytes, 0);
                for (unsigned j = 0; j < params_.slices; ++j)
                    mergeShare(merged, slices_[j].dataShare[seq][slot],
                               j, params_.slices);
                cipher_.transformBuffer(merged.data(), merged.size(),
                                        dataNonce(seq, slot), ctr);
                BlockData d{};
                std::memcpy(d.data(), merged.data(), blockBytes);
                out.push_back({a, l, d});
            }
        }
    }
    for (const auto &kv : shadow_) {
        const ShadowEntry &e = kv.second;
        if (e.cpuResident) {
            out.push_back({kv.first, e.leaf, e.data});
            continue;
        }
        std::vector<std::uint8_t> merged(blockBytes, 0);
        for (unsigned j = 0; j < params_.slices; ++j) {
            const auto &piece = slices_[j].stash[e.stashIdx];
            SD_ASSERT(piece.has_value());
            mergeShare(merged, piece->cipher, j, params_.slices);
        }
        cipher_.transformBuffer(merged.data(), merged.size(),
                                dataNonce(e.srcSeq, e.srcSlot),
                                e.srcCounter);
        BlockData d{};
        std::memcpy(d.data(), merged.data(), blockBytes);
        out.push_back({kv.first, e.leaf, d});
    }
    return out;
}

} // namespace secdimm::sdimm

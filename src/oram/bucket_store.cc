#include "oram/bucket_store.hh"

#include <cstring>

#include "fault/fault_injector.hh"
#include "util/logging.hh"
#include "util/memory_hints.hh"

namespace secdimm::oram
{

BucketStore::BucketStore(std::uint64_t num_buckets, unsigned z,
                         const crypto::Aes128Key &enc_key,
                         const crypto::Aes128Key &mac_key,
                         std::uint64_t nonce_salt, bool write_dummies)
    : z_(z),
      img_(Bucket::imageBytes(z)),
      cipher_(enc_key),
      mac_(mac_key),
      nonceSalt_(nonce_salt),
      arena_(num_buckets * img_),
      counters_(num_buckets, 0),
      macs_(num_buckets, 0)
{
    if (!write_dummies)
        return;
    // Initialize every bucket to an all-dummy image so the tree is
    // well-formed (and indistinguishable) from the first access.
    Bucket empty(z_);
    for (std::uint64_t seq = 0; seq < num_buckets; ++seq)
        writeBucket(seq, empty);
}

std::uint64_t
BucketStore::nonce(std::uint64_t seq) const
{
    // Mix the salt into the spatial nonce so two trees (or two Split
    // slices) never share a pad even under one key.
    return seq ^ (nonceSalt_ << 48) ^ (nonceSalt_ * 0x9e3779b97f4a7c15ULL);
}

void
BucketStore::writeBucket(std::uint64_t seq, const Bucket &bucket)
{
    SD_ASSERT(seq < counters_.size());
    SD_ASSERT(bucket.z() == z_);
    if (observer_)
        observer_(TraceEventKind::StoreWrite, seq);
    std::uint8_t *dst = image(seq);
    bucket.toImageInto(dst);
    const std::uint64_t ctr = ++counters_[seq];
    cipher_.transformBuffer(dst, img_, nonce(seq), ctr);
    macs_[seq] = mac_.tag(nonce(seq), ctr, dst, img_);
}

BucketReadResult
BucketStore::readBucket(std::uint64_t seq) const
{
    SD_ASSERT(seq < counters_.size());
    if (observer_)
        observer_(TraceEventKind::StoreRead, seq);
    const std::uint64_t ctr = counters_[seq];
    std::vector<std::uint8_t> copy(image(seq), image(seq) + img_);
    if (injector_ && injector_->rollDramBitFlip())
        injector_->corruptBuffer(copy);
    const bool authentic = mac_.verify(nonce(seq), ctr, copy.data(),
                                       img_, macs_[seq]);
    cipher_.transformBuffer(copy.data(), img_, nonce(seq), ctr);
    return BucketReadResult{Bucket::fromImage(copy, z_), authentic};
}

void
BucketStore::readBuckets(const std::uint64_t *seqs, std::size_t n,
                         std::uint8_t *images, bool *ok) const
{
    if (n == 0)
        return;
    // Issue every bucket's loads before the first is copied, so their
    // cache misses overlap.  A prefetch is a hint: no observer event,
    // injector roll or counter moves.
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seqs[i];
        SD_ASSERT(seq < counters_.size());
        util::prefetchRange(image(seq), img_);
        __builtin_prefetch(&counters_[seq]);
        __builtin_prefetch(&macs_[seq]);
    }
    items_.resize(n);
    tags_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seqs[i];
        if (observer_)
            observer_(TraceEventKind::StoreRead, seq);
        std::uint8_t *slot = images + img_ * i;
        std::memcpy(slot, image(seq), img_);
        if (injector_ && injector_->rollDramBitFlip())
            injector_->corruptBuffer(slot, img_);
        items_[i] = crypto::PmmacItem{nonce(seq), counters_[seq], slot,
                                      img_};
        tags_[i] = macs_[seq];
    }
    mac_.verifyBatch(items_.data(), n, tags_.data(), ok);
    for (std::size_t i = 0; i < n; ++i) {
        cipher_.transformBuffer(images + img_ * i, img_, nonce(seqs[i]),
                                counters_[seqs[i]]);
    }
}

void
BucketStore::writeBuckets(const std::uint64_t *seqs,
                          const std::uint8_t *images, std::size_t n)
{
    if (n == 0)
        return;
    items_.resize(n);
    tags_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seqs[i];
        SD_ASSERT(seq < counters_.size());
        if (observer_)
            observer_(TraceEventKind::StoreWrite, seq);
        std::uint8_t *dst = image(seq);
        std::memcpy(dst, images + img_ * i, img_);
        const std::uint64_t ctr = ++counters_[seq];
        cipher_.transformBuffer(dst, img_, nonce(seq), ctr);
        items_[i] = crypto::PmmacItem{nonce(seq), ctr, dst, img_};
    }
    mac_.tagBatch(items_.data(), n, tags_.data());
    for (std::size_t i = 0; i < n; ++i)
        macs_[seqs[i]] = tags_[i];
}

std::uint64_t
BucketStore::counter(std::uint64_t seq) const
{
    SD_ASSERT(seq < counters_.size());
    return counters_[seq];
}

void
BucketStore::tamperData(std::uint64_t seq, std::size_t byte_index)
{
    SD_ASSERT(seq < counters_.size());
    SD_ASSERT(byte_index < img_);
    image(seq)[byte_index] ^= 0x01;
}

void
BucketStore::replayFrom(std::uint64_t seq,
                        const std::vector<std::uint8_t> &old_image,
                        std::uint64_t old_counter, crypto::Tag64 old_mac)
{
    SD_ASSERT(seq < counters_.size());
    SD_ASSERT(old_image.size() == img_);
    std::memcpy(image(seq), old_image.data(), img_);
    counters_[seq] = old_counter;
    macs_[seq] = old_mac;
}

std::vector<std::uint8_t>
BucketStore::rawImage(std::uint64_t seq) const
{
    SD_ASSERT(seq < counters_.size());
    return std::vector<std::uint8_t>(image(seq), image(seq) + img_);
}

crypto::Tag64
BucketStore::rawMac(std::uint64_t seq) const
{
    SD_ASSERT(seq < macs_.size());
    return macs_[seq];
}

} // namespace secdimm::oram

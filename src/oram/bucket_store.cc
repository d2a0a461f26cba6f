#include "oram/bucket_store.hh"

#include <cstring>
#include <memory>

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::oram
{

BucketStore::BucketStore(std::uint64_t num_buckets, unsigned z,
                         const crypto::Aes128Key &enc_key,
                         const crypto::Aes128Key &mac_key,
                         std::uint64_t nonce_salt)
    : z_(z),
      cipher_(enc_key),
      mac_(mac_key),
      nonceSalt_(nonce_salt),
      images_(num_buckets),
      counters_(num_buckets, 0),
      macs_(num_buckets, 0)
{
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
    SD_ASSERT(seq < images_.size());
    SD_ASSERT(bucket.z() == z_);
    if (observer_)
        observer_(TraceEventKind::StoreWrite, seq);
    std::vector<std::uint8_t> image = bucket.toImage();
    const std::uint64_t ctr = ++counters_[seq];
    cipher_.transformBuffer(image.data(), image.size(), nonce(seq), ctr);
    macs_[seq] = mac_.tag(nonce(seq), ctr, image.data(), image.size());
    images_[seq] = std::move(image);
}

BucketReadResult
BucketStore::readBucket(std::uint64_t seq) const
{
    SD_ASSERT(seq < images_.size());
    if (observer_)
        observer_(TraceEventKind::StoreRead, seq);
    const std::uint64_t ctr = counters_[seq];
    std::vector<std::uint8_t> image = images_[seq];
    if (injector_ && injector_->rollDramBitFlip())
        injector_->corruptBuffer(image);
    const bool authentic = mac_.verify(nonce(seq), ctr, image.data(),
                                       image.size(), macs_[seq]);
    cipher_.transformBuffer(image.data(), image.size(), nonce(seq), ctr);
    BucketReadResult r{Bucket::fromImage(image, z_), authentic};
    return r;
}

void
BucketStore::readBuckets(const std::uint64_t *seqs, std::size_t n,
                         std::vector<BucketReadResult> &out) const
{
    out.clear();
    if (n == 0)
        return;
    const std::size_t img = Bucket::imageBytes(z_);
    arena_.resize(img * n);
    std::vector<crypto::PmmacItem> items(n);
    std::vector<crypto::Tag64> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seqs[i];
        SD_ASSERT(seq < images_.size());
        if (observer_)
            observer_(TraceEventKind::StoreRead, seq);
        std::uint8_t *slot = arena_.data() + img * i;
        std::memcpy(slot, images_[seq].data(), img);
        if (injector_ && injector_->rollDramBitFlip())
            injector_->corruptBuffer(slot, img);
        items[i] = crypto::PmmacItem{nonce(seq), counters_[seq], slot,
                                     img};
        expected[i] = macs_[seq];
    }
    const std::unique_ptr<bool[]> ok(new bool[n]);
    mac_.verifyBatch(items.data(), n, expected.data(), ok.get());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t *slot = arena_.data() + img * i;
        cipher_.transformBuffer(slot, img, nonce(seqs[i]),
                                counters_[seqs[i]]);
        out.push_back(
            BucketReadResult{Bucket::fromImage(slot, img, z_), ok[i]});
    }
}

void
BucketStore::writeBuckets(const std::uint64_t *seqs,
                          const Bucket *buckets, std::size_t n)
{
    if (n == 0)
        return;
    const std::size_t img = Bucket::imageBytes(z_);
    arena_.resize(img * n);
    std::vector<crypto::PmmacItem> items(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t seq = seqs[i];
        SD_ASSERT(seq < images_.size());
        SD_ASSERT(buckets[i].z() == z_);
        if (observer_)
            observer_(TraceEventKind::StoreWrite, seq);
        std::uint8_t *slot = arena_.data() + img * i;
        buckets[i].toImageInto(slot);
        const std::uint64_t ctr = ++counters_[seq];
        cipher_.transformBuffer(slot, img, nonce(seq), ctr);
        items[i] = crypto::PmmacItem{nonce(seq), ctr, slot, img};
    }
    std::vector<crypto::Tag64> tags(n);
    mac_.tagBatch(items.data(), n, tags.data());
    for (std::size_t i = 0; i < n; ++i) {
        macs_[seqs[i]] = tags[i];
        const std::uint8_t *slot = arena_.data() + img * i;
        images_[seqs[i]].assign(slot, slot + img);
    }
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
    SD_ASSERT(seq < images_.size());
    images_[seq].at(byte_index) ^= 0x01;
}

void
BucketStore::replayFrom(std::uint64_t seq,
                        const std::vector<std::uint8_t> &old_image,
                        std::uint64_t old_counter, crypto::Tag64 old_mac)
{
    SD_ASSERT(seq < images_.size());
    images_[seq] = old_image;
    counters_[seq] = old_counter;
    macs_[seq] = old_mac;
}

const std::vector<std::uint8_t> &
BucketStore::rawImage(std::uint64_t seq) const
{
    SD_ASSERT(seq < images_.size());
    return images_[seq];
}

crypto::Tag64
BucketStore::rawMac(std::uint64_t seq) const
{
    SD_ASSERT(seq < macs_.size());
    return macs_[seq];
}

} // namespace secdimm::oram

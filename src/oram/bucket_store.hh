/**
 * @file
 * The untrusted memory image of an ORAM tree: every bucket stored as
 * AES-CTR ciphertext with a plaintext freshness counter and a PMMAC
 * tag binding (bucket id, counter, ciphertext) -- encrypt-then-MAC.
 *
 * This models the DRAM contents an attacker can see and tamper with;
 * tamperData()/replayFrom() let tests inject exactly such attacks.
 * Every ciphertext image lives in one flat arena (bucket seq's image
 * at seq * imageBytes()), and the path calls work on the caller's
 * contiguous plaintext images, so a path read or write allocates
 * nothing once the MAC scratch has grown to one path.
 */

#ifndef SECUREDIMM_ORAM_BUCKET_STORE_HH
#define SECUREDIMM_ORAM_BUCKET_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/ctr_mode.hh"
#include "crypto/pmmac.hh"
#include "oram/bucket.hh"
#include "oram/oram_engine.hh"

namespace secdimm::oram
{

/** Result of an authenticated bucket read. */
struct BucketReadResult
{
    Bucket bucket;
    bool authentic = false;
};

/** Encrypted, MAC'd array of buckets (one per bucket sequence no.). */
class BucketStore
{
  public:
    /**
     * @param num_buckets total buckets in the tree
     * @param z           blocks per bucket
     * @param enc_key     AES key for CTR bucket encryption
     * @param mac_key     AES key for PMMAC
     * @param nonce_salt  distinguishes trees sharing a key (e.g.
     *                    Split ORAM slice id)
     * @param write_dummies write every bucket's all-dummy image
     *                    (counter 1); false leaves every bucket
     *                    unwritten (counter 0, not authentic) for the
     *                    owner to write the ones it keeps here
     */
    BucketStore(std::uint64_t num_buckets, unsigned z,
                const crypto::Aes128Key &enc_key,
                const crypto::Aes128Key &mac_key,
                std::uint64_t nonce_salt = 0, bool write_dummies = true);

    /** Encrypt, MAC, and store @p bucket; bumps its counter. */
    void writeBucket(std::uint64_t seq, const Bucket &bucket);

    /** Decrypt and verify; authentic==false on any mismatch. */
    BucketReadResult readBucket(std::uint64_t seq) const;

    /**
     * Authenticated read of @p n buckets at once (e.g. one ORAM
     * path) into @p images: n plaintext images of imageBytes() each,
     * in argument order, with @p ok[i] set iff bucket i's MAC holds.
     * Observer events and fault-injection rolls fire per bucket in
     * argument order, exactly as n readBucket() calls would; the MACs
     * are then verified in one batched PMMAC pass.
     */
    void readBuckets(const std::uint64_t *seqs, std::size_t n,
                     std::uint8_t *images, bool *ok) const;

    /**
     * Encrypt, MAC (one batched pass), and store @p n plaintext
     * images (imageBytes() each, in argument order); bumps each
     * bucket's counter.
     */
    void writeBuckets(const std::uint64_t *seqs,
                      const std::uint8_t *images, std::size_t n);

    /** Current freshness counter of a bucket. */
    std::uint64_t counter(std::uint64_t seq) const;

    /** Flip one ciphertext byte (tamper-injection for tests). */
    void tamperData(std::uint64_t seq, std::size_t byte_index);

    /** Roll a bucket back to a previous image (replay attack). */
    void replayFrom(std::uint64_t seq,
                    const std::vector<std::uint8_t> &old_image,
                    std::uint64_t old_counter, crypto::Tag64 old_mac);

    /** Copy of the raw ciphertext image (replay capture in tests). */
    std::vector<std::uint8_t> rawImage(std::uint64_t seq) const;
    crypto::Tag64 rawMac(std::uint64_t seq) const;

    /** Bytes of one bucket image (Bucket::imageBytes(z())). */
    std::size_t imageBytes() const { return img_; }
    std::uint64_t numBuckets() const { return counters_.size(); }
    unsigned z() const { return z_; }

    /**
     * Fired on every bucket read/write with the bucket sequence
     * number: the physical access pattern an adversary watching this
     * memory image observes (verify::ChannelObserver).  Single
     * consumer; empty fn detaches.  Events are StoreRead/StoreWrite.
     */
    void setAccessObserver(TraceEventFn fn)
    {
        observer_ = std::move(fn);
    }

    /**
     * Arm transient-read fault injection (nullptr disarms).  A rolled
     * DRAM bit flip corrupts only the copy returned by readBucket();
     * the stored image stays intact, so the PMMAC detects the flip
     * and a retry of the same read succeeds.  Not owned.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector_ = inj; }

    /** Fold this store's crypto work into @p t (crypto.* metrics). */
    void
    collectCrypto(crypto::CryptoTotals &t) const
    {
        cipher_.collectTotals(t);
        mac_.collectTotals(t);
    }

  private:
    std::uint64_t nonce(std::uint64_t seq) const;
    std::uint8_t *image(std::uint64_t seq)
    {
        return arena_.data() + seq * img_;
    }
    const std::uint8_t *image(std::uint64_t seq) const
    {
        return arena_.data() + seq * img_;
    }

    unsigned z_;
    std::size_t img_;
    crypto::CtrCipher cipher_;
    crypto::Pmmac mac_;
    std::uint64_t nonceSalt_;
    /** Every bucket's ciphertext image, back to back. */
    std::vector<std::uint8_t> arena_;
    std::vector<std::uint64_t> counters_;
    std::vector<crypto::Tag64> macs_;
    TraceEventFn observer_;
    fault::FaultInjector *injector_ = nullptr;
    /** Batch MAC scratch; grows to one path, then stays. */
    mutable std::vector<crypto::PmmacItem> items_;
    mutable std::vector<crypto::Tag64> tags_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_BUCKET_STORE_HH

/**
 * @file
 * AES-CMAC (RFC 4493), the MAC primitive underneath PMMAC bucket
 * authentication in the reproduction.
 *
 * Two additions beyond the textbook single-message API make the ORAM
 * hot path cheap:
 *
 *  - computeWithPrefix() logically prepends one 16-byte block to the
 *    message without concatenating buffers, so PMMAC's (id || counter)
 *    header never forces a per-tag allocation+copy.
 *  - computeBatch() runs many independent CMAC chains side by side
 *    through Aes128::cbcChains, which keeps the chain states in
 *    registers.  One chain is inherently serial (CBC-style
 *    dependency), but a whole ORAM path's buckets are independent,
 *    which is exactly the parallelism the hardware AES backends need.
 */

#ifndef SECUREDIMM_CRYPTO_CMAC_HH
#define SECUREDIMM_CRYPTO_CMAC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes128.hh"

namespace secdimm::crypto
{

/**
 * One message in a CMAC batch.  @p prefix is either null or exactly
 * 16 bytes that are MACed as if prepended to the @p len bytes at
 * @p msg -- the tag equals compute() over the concatenation.
 */
struct CmacJob
{
    const std::uint8_t *prefix = nullptr;
    const std::uint8_t *msg = nullptr;
    std::size_t len = 0;
};

/** AES-CMAC with cached subkeys K1/K2. */
class Cmac
{
  public:
    explicit Cmac(const Aes128Key &key);

    /** Compute the 16-byte MAC tag of @p len bytes at @p msg. */
    Aes128Block compute(const std::uint8_t *msg, std::size_t len) const;

    /**
     * MAC of the 16-byte block at @p prefix followed by @p len bytes
     * at @p msg, computed without materialising the concatenation.
     */
    Aes128Block computeWithPrefix(const std::uint8_t *prefix,
                                  const std::uint8_t *msg,
                                  std::size_t len) const;

    /**
     * Compute @p n independent tags at once.  Jobs are grouped by
     * (has prefix, block count); each group's chains advance together
     * through Aes128::cbcChains, and every job's final block goes
     * through one encryptBlocks call.  Allocates only while its
     * scratch grows to the largest batch seen.
     */
    void computeBatch(const CmacJob *jobs, std::size_t n,
                      Aes128Block *tags) const;

    /** Constant-time-ish tag comparison. */
    static bool tagsEqual(const Aes128Block &a, const Aes128Block &b);

    /** Backend the underlying AES instance dispatches to. */
    AesImpl impl() const { return aes_.impl(); }

    /** Fold this instance's work into @p t (crypto.* metrics). */
    void
    collectTotals(CryptoTotals &t) const
    {
        aes_.collectTotals(t);
        t.macTags += tags_;
        t.macBatchCalls += batchCalls_;
        t.macBatchTags += batchTags_;
    }

  private:
    /** Shared worker: @p prefix may be null, else 16 bytes. */
    Aes128Block computeOne(const std::uint8_t *prefix,
                           const std::uint8_t *msg,
                           std::size_t len) const;

    Aes128 aes_;
    Aes128Block k1_;
    Aes128Block k2_;
    /** computeBatch scratch: job order, chain states, block pointers. */
    mutable std::vector<std::uint32_t> order_;
    mutable std::vector<std::uint8_t> states_;
    mutable std::vector<const std::uint8_t *> ptrs_;
    mutable std::uint64_t tags_ = 0;
    mutable std::uint64_t batchCalls_ = 0;
    mutable std::uint64_t batchTags_ = 0;
};

} // namespace secdimm::crypto

#endif // SECUREDIMM_CRYPTO_CMAC_HH

/**
 * @file
 * PMMAC-style counter-based message authentication (Fletcher et al.,
 * Freecursive ORAM).  Every bucket (or bucket slice, in Split ORAM)
 * carries a monotonically increasing counter; the MAC binds
 * (identity, counter, payload) so replaying an old ciphertext fails
 * verification without any Merkle tree over the data.
 *
 * The (id || counter) header is exactly one AES block, fed to CMAC
 * via Cmac::computeWithPrefix so no tag ever allocates or copies the
 * payload.  tagBatch()/verifyBatch() authenticate a whole ORAM path
 * in one batched CMAC pass (see cmac.hh).
 */

#ifndef SECUREDIMM_CRYPTO_PMMAC_HH
#define SECUREDIMM_CRYPTO_PMMAC_HH

#include <cstdint>
#include <vector>

#include "crypto/cmac.hh"

namespace secdimm::crypto
{

/** Truncated 64-bit MAC tag as stored in bucket metadata. */
using Tag64 = std::uint64_t;

/** One (identity, counter, payload) item in a PMMAC batch. */
struct PmmacItem
{
    std::uint64_t id = 0;
    std::uint64_t counter = 0;
    const std::uint8_t *data = nullptr;
    std::size_t len = 0;
};

/** PMMAC tagger/verifier bound to one key. */
class Pmmac
{
  public:
    explicit Pmmac(const Aes128Key &key) : cmac_(key) {}

    /**
     * Compute the 64-bit tag for payload @p data under identity
     * @p id and freshness counter @p counter.
     */
    Tag64 tag(std::uint64_t id, std::uint64_t counter,
              const std::uint8_t *data, std::size_t len) const;

    /** Verify; true iff the tag matches. */
    bool verify(std::uint64_t id, std::uint64_t counter,
                const std::uint8_t *data, std::size_t len,
                Tag64 expected) const;

    /** Compute @p n tags in one batched CMAC pass. */
    void tagBatch(const PmmacItem *items, std::size_t n,
                  Tag64 *tags) const;

    /**
     * Verify @p n items against @p expected in one batched pass;
     * @p ok[i] is set per item.  Returns true iff every item passed.
     */
    bool verifyBatch(const PmmacItem *items, std::size_t n,
                     const Tag64 *expected, bool *ok) const;

    /** Backend the underlying AES instance dispatches to. */
    AesImpl impl() const { return cmac_.impl(); }

    /** Fold this instance's work into @p t (crypto.* metrics). */
    void collectTotals(CryptoTotals &t) const { cmac_.collectTotals(t); }

  private:
    Cmac cmac_;
    /** Batch scratch; grows to the largest batch, then stays. */
    mutable std::vector<std::uint8_t> headers_;
    mutable std::vector<CmacJob> jobs_;
    mutable std::vector<Aes128Block> full_;
    mutable std::vector<Tag64> actual_;
};

} // namespace secdimm::crypto

#endif // SECUREDIMM_CRYPTO_PMMAC_HH

/**
 * @file
 * AES counter mode as used twice in the paper: (1) bucket encryption in
 * the ORAM tree keyed by (bucket id, bucket counter), and (2) the
 * CPU<->SDIMM link encryption keyed by per-direction session counters.
 *
 * The pad for 16-byte lane i of a message is
 *   AES_k(nonce || counter || i)
 * so a pad is never reused as long as the counter advances.  The lanes
 * of one buffer are independent, so the keystream is generated through
 * Aes128::encryptBlocks up to 64 blocks at a time -- a whole 320-byte
 * bucket image in one call -- and the hardware backends interleave
 * the AES rounds eight lanes wide.
 */

#ifndef SECUREDIMM_CRYPTO_CTR_MODE_HH
#define SECUREDIMM_CRYPTO_CTR_MODE_HH

#include <cstdint>
#include <vector>

#include "crypto/aes128.hh"
#include "util/types.hh"

namespace secdimm::crypto
{

/** Counter-mode cipher over 64-byte blocks and arbitrary buffers. */
class CtrCipher
{
  public:
    explicit CtrCipher(const Aes128Key &key) : aes_(key) {}

    /**
     * Encrypt (or decrypt -- the operation is an involution) a 64-byte
     * block in place using pad AES_k(nonce, counter, lane).
     *
     * @param data   the block to transform
     * @param nonce  spatial component (e.g. bucket id, slot index)
     * @param counter temporal component (bucket/session counter)
     */
    void transformBlock(BlockData &data, std::uint64_t nonce,
                        std::uint64_t counter) const;

    /** Same as transformBlock but over an arbitrary byte buffer. */
    void transformBuffer(std::uint8_t *data, std::size_t len,
                         std::uint64_t nonce,
                         std::uint64_t counter) const;

    /** Raw 16-byte pad for tests / MAC derivations. */
    Aes128Block pad(std::uint64_t nonce, std::uint64_t counter,
                    std::uint32_t lane) const;

    /** Backend the underlying AES instance dispatches to. */
    AesImpl impl() const { return aes_.impl(); }

    /** Fold this cipher's work into @p t (crypto.* metrics). */
    void
    collectTotals(CryptoTotals &t) const
    {
        aes_.collectTotals(t);
        t.ctrBytes += bytes_;
    }

  private:
    Aes128 aes_;
    mutable std::uint64_t bytes_ = 0;
};

} // namespace secdimm::crypto

#endif // SECUREDIMM_CRYPTO_CTR_MODE_HH

/**
 * @file
 * AES-128 block cipher behind a runtime-dispatched backend.  This is
 * the primitive under the CPU<->SDIMM link encryption, ORAM bucket
 * encryption (counter mode), and CMAC/PMMAC in the reproduction.
 *
 * Three bit-exact implementations sit behind the one Aes128 class:
 * the portable byte-oriented FIPS-197 table path (always available),
 * x86 AES-NI, and the ARMv8 Crypto Extension.  Each instance picks
 * its backend at construction via cpu_features.hh (CPUID/HWCAP
 * detection, `SDIMM_AES_IMPL` env override, forceAesImpl() test
 * hook).  The hardware paths run the two batch APIs (encryptBlocks
 * for independent blocks, cbcChains for CBC-MAC chains) with rounds
 * interleaved eight blocks wide, which is what makes CTR keystreams
 * and batched path MACs fast; see docs/PERFORMANCE.md for the
 * measured before/after and the dispatch design.
 */

#ifndef SECUREDIMM_CRYPTO_AES128_HH
#define SECUREDIMM_CRYPTO_AES128_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/cpu_features.hh"

namespace secdimm::crypto
{

/** 128-bit key/block as a byte array. */
using Aes128Block = std::array<std::uint8_t, 16>;
using Aes128Key = std::array<std::uint8_t, 16>;

/**
 * Work counters every crypto object accumulates and the facade
 * aggregates into the `crypto.*` metric family (docs/METRICS.md).
 * Kept per instance -- not process-global -- so identically seeded
 * runs export byte-identical metrics (tests/verify/test_determinism).
 */
struct CryptoTotals
{
    std::uint64_t aesBlocks = 0;     ///< AES block ops, any backend.
    std::uint64_t ctrBytes = 0;      ///< Bytes CTR-transformed.
    std::uint64_t macTags = 0;       ///< CMAC tags computed (all APIs).
    std::uint64_t macBatchCalls = 0; ///< Batched-MAC invocations.
    std::uint64_t macBatchTags = 0;  ///< Tags produced by batch calls.

    void
    add(const CryptoTotals &o)
    {
        aesBlocks += o.aesBlocks;
        ctrBytes += o.ctrBytes;
        macTags += o.macTags;
        macBatchCalls += o.macBatchCalls;
        macBatchTags += o.macBatchTags;
    }
};

/**
 * AES-128 with a pre-expanded key schedule and a backend chosen at
 * construction/rekey time.  Thread-compatible: const methods are safe
 * to call concurrently from threads that each own distinct instances;
 * the mutable work counter makes sharing one instance across threads
 * a (benign-value) data race, and no caller does.
 */
class Aes128
{
  public:
    explicit Aes128(const Aes128Key &key) { rekey(key); }

    /** Re-run key expansion (and backend selection) with a new key. */
    void rekey(const Aes128Key &key);

    /** Encrypt one 16-byte block. */
    Aes128Block encrypt(const Aes128Block &plaintext) const;

    /** Decrypt one 16-byte block. */
    Aes128Block decrypt(const Aes128Block &ciphertext) const;

    /**
     * ECB-encrypt @p n independent 16-byte blocks from @p in to
     * @p out (in == out allowed; partial overlap is not).  On the
     * hardware backends the rounds are interleaved up to eight blocks
     * wide, hiding the AES round latency -- this is the fast path
     * under CTR keystream generation and batched CMAC chains.
     */
    void encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                       std::size_t n) const;

    /**
     * Advance @p n independent CBC-MAC chains by @p nblocks blocks:
     * for each of the 16-byte blocks m at msgs[i], msgs[i] + 16, ...
     * in turn, chain i's state (16 bytes at state + 16 i) becomes
     * E(state ^ m).  The AES-NI backend keeps the states in registers
     * across blocks, eight chains interleaved; the other backends
     * loop over encryptBlocks.  Counts n * nblocks block operations.
     */
    void cbcChains(std::uint8_t *state, const std::uint8_t *const *msgs,
                   std::size_t n, std::size_t nblocks) const;

    /** Backend this instance dispatches to. */
    AesImpl impl() const { return impl_; }

    /** AES block operations this instance has executed. */
    std::uint64_t blockOps() const { return blockOps_; }

    /** Fold this instance's work into @p t (crypto.* metrics). */
    void collectTotals(CryptoTotals &t) const { t.aesBlocks += blockOps_; }

  private:
    /** 11 round keys of 16 bytes each (FIPS-197 schedule). */
    alignas(16) std::array<std::uint8_t, 176> roundKeys_;
    /** Equivalent-inverse schedule for hardware decrypt paths. */
    alignas(16) std::array<std::uint8_t, 176> invRoundKeys_;
    AesImpl impl_ = AesImpl::Table;
    mutable std::uint64_t blockOps_ = 0;
};

/** Build an Aes128Key from two 64-bit words (tests, key derivation). */
Aes128Key makeKey(std::uint64_t hi, std::uint64_t lo);

/** XOR two 16-byte blocks. */
Aes128Block blockXor(const Aes128Block &a, const Aes128Block &b);

} // namespace secdimm::crypto

#endif // SECUREDIMM_CRYPTO_AES128_HH

/**
 * @file
 * Internal contract between the Aes128 dispatch facade and the
 * hardware backends (aes128_ni.cc, aes128_armv8.cc).  Each backend
 * consumes the same 176-byte FIPS-197 key schedule the table path
 * expands, so every implementation is bit-exact interchangeable; the
 * hardware paths additionally pre-compute an InvMixColumns'd schedule
 * for the equivalent-inverse-cipher decrypt instructions.
 *
 * Not installed as public API -- include crypto/aes128.hh instead.
 */

#ifndef SECUREDIMM_CRYPTO_AES128_BACKEND_HH
#define SECUREDIMM_CRYPTO_AES128_BACKEND_HH

#include <cstddef>
#include <cstdint>

namespace secdimm::crypto::detail
{

/** Compile-time + runtime availability of x86 AES-NI. */
bool aesniAvailable();

/**
 * inv_rk[0..175] := decrypt schedule for AESDEC: round keys reversed,
 * AESIMC applied to the nine middle keys.  Requires aesniAvailable().
 */
void aesniExpandInv(const std::uint8_t *rk, std::uint8_t *inv_rk);

/**
 * ECB-encrypt @p n independent 16-byte blocks, rounds interleaved
 * eight blocks wide so the aesenc pipeline stays full.  in == out is
 * allowed; distinct overlap is not.
 */
void aesniEncryptBlocks(const std::uint8_t *rk, const std::uint8_t *in,
                        std::uint8_t *out, std::size_t n);

/**
 * Advance @p n CBC-MAC chains by @p nblocks blocks each: chain i's
 * 16-byte state at state + 16 i becomes E(state ^ m) for each block m
 * of msgs[i] in turn.  The states stay in registers across blocks,
 * eight chains interleaved.
 */
void aesniCbcChains(const std::uint8_t *rk, std::uint8_t *state,
                    const std::uint8_t *const *msgs, std::size_t n,
                    std::size_t nblocks);

/** Decrypt one block with the aesniExpandInv() schedule. */
void aesniDecryptBlock(const std::uint8_t *inv_rk,
                       const std::uint8_t *in, std::uint8_t *out);

/** Compile-time + runtime availability of the ARMv8 AES extension. */
bool armv8Available();

/** ARMv8 analogues of the three entry points above. */
void armv8ExpandInv(const std::uint8_t *rk, std::uint8_t *inv_rk);
void armv8EncryptBlocks(const std::uint8_t *rk, const std::uint8_t *in,
                        std::uint8_t *out, std::size_t n);
void armv8DecryptBlock(const std::uint8_t *inv_rk,
                       const std::uint8_t *in, std::uint8_t *out);

} // namespace secdimm::crypto::detail

#endif // SECUREDIMM_CRYPTO_AES128_BACKEND_HH

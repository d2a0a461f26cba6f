/**
 * @file
 * ARMv8-A Crypto Extension backend (AESE/AESMC, AESD/AESIMC).  Same
 * structure as aes128_ni.cc: always compiled, intrinsics confined to
 * target-attributed functions, runtime HWCAP gating.  AESE fuses
 * AddRoundKey+SubBytes+ShiftRows, so the round sequencing differs
 * from x86 but consumes the identical 176-byte FIPS-197 schedule and
 * produces bit-exact output.  Its fixed-trip lane, round and key loops
 * carry the same unroll pragmas, for the same reason: the eight-lane
 * interleave exists only once they are fully unrolled.
 */

#include "crypto/aes128_backend.hh"

#if defined(__aarch64__)
#define SECUREDIMM_HAVE_ARMV8_AES_BUILD 1
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_AES
#define HWCAP_AES (1 << 3)
#endif
#endif
#endif

#include "util/logging.hh"

namespace secdimm::crypto::detail
{

#if SECUREDIMM_HAVE_ARMV8_AES_BUILD

bool
armv8Available()
{
#if defined(__linux__)
    return (getauxval(AT_HWCAP) & HWCAP_AES) != 0;
#elif defined(__APPLE__)
    return true; // All Apple aarch64 cores ship the AES extension.
#else
    return false;
#endif
}

__attribute__((target("+crypto"))) void
armv8ExpandInv(const std::uint8_t *rk, std::uint8_t *inv_rk)
{
    // Decrypt schedule: keys reversed, AESIMC on the middle nine.
    vst1q_u8(inv_rk, vld1q_u8(rk + 160));
    for (int i = 1; i <= 9; ++i) {
        vst1q_u8(inv_rk + 16 * i,
                 vaesimcq_u8(vld1q_u8(rk + 16 * (10 - i))));
    }
    vst1q_u8(inv_rk + 160, vld1q_u8(rk));
}

__attribute__((target("+crypto"))) void
armv8EncryptBlocks(const std::uint8_t *rk, const std::uint8_t *in,
                   std::uint8_t *out, std::size_t n)
{
    uint8x16_t k[11];
#pragma GCC unroll 11
    for (int i = 0; i < 11; ++i)
        k[i] = vld1q_u8(rk + 16 * i);

    constexpr std::size_t kLanes = 8;
    while (n >= kLanes) {
        uint8x16_t s[kLanes];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j)
            s[j] = vld1q_u8(in + 16 * j);
#pragma GCC unroll 9
        for (int r = 0; r <= 8; ++r) {
#pragma GCC unroll 8
            for (std::size_t j = 0; j < kLanes; ++j)
                s[j] = vaesmcq_u8(vaeseq_u8(s[j], k[r]));
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j)
            vst1q_u8(out + 16 * j,
                     veorq_u8(vaeseq_u8(s[j], k[9]), k[10]));
        in += 16 * kLanes;
        out += 16 * kLanes;
        n -= kLanes;
    }
    for (std::size_t j = 0; j < n; ++j) {
        uint8x16_t s = vld1q_u8(in + 16 * j);
#pragma GCC unroll 9
        for (int r = 0; r <= 8; ++r)
            s = vaesmcq_u8(vaeseq_u8(s, k[r]));
        vst1q_u8(out + 16 * j, veorq_u8(vaeseq_u8(s, k[9]), k[10]));
    }
}

__attribute__((target("+crypto"))) void
armv8DecryptBlock(const std::uint8_t *inv_rk, const std::uint8_t *in,
                  std::uint8_t *out)
{
    uint8x16_t s = vld1q_u8(in);
#pragma GCC unroll 9
    for (int r = 0; r <= 8; ++r)
        s = vaesimcq_u8(vaesdq_u8(s, vld1q_u8(inv_rk + 16 * r)));
    s = veorq_u8(vaesdq_u8(s, vld1q_u8(inv_rk + 144)),
                 vld1q_u8(inv_rk + 160));
    vst1q_u8(out, s);
}

#else // !SECUREDIMM_HAVE_ARMV8_AES_BUILD

bool
armv8Available()
{
    return false;
}

void
armv8ExpandInv(const std::uint8_t *, std::uint8_t *)
{
    panic("armv8 backend called on a non-aarch64 build");
}

void
armv8EncryptBlocks(const std::uint8_t *, const std::uint8_t *,
                   std::uint8_t *, std::size_t)
{
    panic("armv8 backend called on a non-aarch64 build");
}

void
armv8DecryptBlock(const std::uint8_t *, const std::uint8_t *,
                  std::uint8_t *)
{
    panic("armv8 backend called on a non-aarch64 build");
}

#endif // SECUREDIMM_HAVE_ARMV8_AES_BUILD

} // namespace secdimm::crypto::detail

/**
 * @file
 * x86 AES-NI backend.  The whole file is compiled on every platform;
 * the intrinsics are confined to __attribute__((target("aes,sse2")))
 * functions so no special compile flags leak into the rest of the
 * build, and runtime CPUID gating (cpu_features.cc) guarantees they
 * are only ever called on capable silicon.
 *
 * Throughput comes from interleaving: one aesenc has multi-cycle
 * latency but single-cycle throughput, so encrypting eight
 * independent blocks round-by-round hides nearly all of it.  CTR
 * keystreams and batched path MACs feed exactly such independent
 * blocks, and CBC-MAC chains advance eight at a time with their
 * states held in registers.
 *
 * The interleave exists only once the lane and round loops are fully
 * unrolled, and GCC leaves them rolled at -O2 (the default
 * RelWithDebInfo build), which runs the kernels about 4x slower.  So
 * every fixed-trip lane, round and key loop carries its own unroll
 * pragma; the data-dependent block, group and tail loops stay rolled,
 * since unrolling them only multiplies code size.
 */

#include "crypto/aes128_backend.hh"

#if defined(__x86_64__) || defined(__i386__)
#define SECUREDIMM_HAVE_AESNI_BUILD 1
#include <immintrin.h>
#endif

#include "util/logging.hh"

namespace secdimm::crypto::detail
{

#if SECUREDIMM_HAVE_AESNI_BUILD

namespace
{

constexpr std::size_t kLanes = 8;

__attribute__((target("aes,sse2"))) void
loadSchedule(const std::uint8_t *rk, __m128i k[11])
{
    const auto *rkp = reinterpret_cast<const __m128i *>(rk);
#pragma GCC unroll 11
    for (int i = 0; i < 11; ++i)
        k[i] = _mm_loadu_si128(rkp + i);
}

/** @p L CBC-MAC chains interleaved in xmm registers. */
template <std::size_t L>
__attribute__((target("aes,sse2"))) void
niChains(const __m128i k[11], std::uint8_t *state,
         const std::uint8_t *const *msgs, std::size_t nblocks)
{
    auto *st = reinterpret_cast<__m128i *>(state);
    __m128i s[L];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < L; ++j)
        s[j] = _mm_loadu_si128(st + j);
    for (std::size_t b = 0; b < nblocks; ++b) {
#pragma GCC unroll 8
        for (std::size_t j = 0; j < L; ++j) {
            const __m128i m = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(msgs[j] + 16 * b));
            s[j] = _mm_xor_si128(_mm_xor_si128(s[j], m), k[0]);
        }
#pragma GCC unroll 9
        for (int r = 1; r <= 9; ++r) {
#pragma GCC unroll 8
            for (std::size_t j = 0; j < L; ++j)
                s[j] = _mm_aesenc_si128(s[j], k[r]);
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < L; ++j)
            s[j] = _mm_aesenclast_si128(s[j], k[10]);
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < L; ++j)
        _mm_storeu_si128(st + j, s[j]);
}

} // namespace

bool
aesniAvailable()
{
    return __builtin_cpu_supports("aes") != 0 &&
           __builtin_cpu_supports("sse2") != 0;
}

__attribute__((target("aes,sse2"))) void
aesniExpandInv(const std::uint8_t *rk, std::uint8_t *inv_rk)
{
    const auto *in = reinterpret_cast<const __m128i *>(rk);
    auto *out = reinterpret_cast<__m128i *>(inv_rk);
    _mm_storeu_si128(out, _mm_loadu_si128(in + 10));
    for (int i = 1; i <= 9; ++i) {
        _mm_storeu_si128(out + i,
                         _mm_aesimc_si128(_mm_loadu_si128(in + 10 - i)));
    }
    _mm_storeu_si128(out + 10, _mm_loadu_si128(in));
}

__attribute__((target("aes,sse2"))) void
aesniEncryptBlocks(const std::uint8_t *rk, const std::uint8_t *in,
                   std::uint8_t *out, std::size_t n)
{
    __m128i k[11];
    loadSchedule(rk, k);

    const auto *src = reinterpret_cast<const __m128i *>(in);
    auto *dst = reinterpret_cast<__m128i *>(out);

    while (n >= kLanes) {
        __m128i s[kLanes];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j)
            s[j] = _mm_xor_si128(_mm_loadu_si128(src + j), k[0]);
#pragma GCC unroll 9
        for (int r = 1; r <= 9; ++r) {
#pragma GCC unroll 8
            for (std::size_t j = 0; j < kLanes; ++j)
                s[j] = _mm_aesenc_si128(s[j], k[r]);
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j)
            _mm_storeu_si128(dst + j, _mm_aesenclast_si128(s[j], k[10]));
        src += kLanes;
        dst += kLanes;
        n -= kLanes;
    }
    for (std::size_t j = 0; j < n; ++j) {
        __m128i s = _mm_xor_si128(_mm_loadu_si128(src + j), k[0]);
#pragma GCC unroll 9
        for (int r = 1; r <= 9; ++r)
            s = _mm_aesenc_si128(s, k[r]);
        _mm_storeu_si128(dst + j, _mm_aesenclast_si128(s, k[10]));
    }
}

__attribute__((target("aes,sse2"))) void
aesniCbcChains(const std::uint8_t *rk, std::uint8_t *state,
               const std::uint8_t *const *msgs, std::size_t n,
               std::size_t nblocks)
{
    __m128i k[11];
    loadSchedule(rk, k);
    for (; n >= kLanes; n -= kLanes) {
        niChains<kLanes>(k, state, msgs, nblocks);
        state += 16 * kLanes;
        msgs += kLanes;
    }
    // The remainder as one interleaved group: a lone group of 4 and
    // then 1 would each wait out the full round latency.
    switch (n) {
      case 0:
        break;
      case 1:
        niChains<1>(k, state, msgs, nblocks);
        break;
      case 2:
        niChains<2>(k, state, msgs, nblocks);
        break;
      case 3:
        niChains<3>(k, state, msgs, nblocks);
        break;
      case 4:
        niChains<4>(k, state, msgs, nblocks);
        break;
      case 5:
        niChains<5>(k, state, msgs, nblocks);
        break;
      case 6:
        niChains<6>(k, state, msgs, nblocks);
        break;
      default:
        niChains<7>(k, state, msgs, nblocks);
        break;
    }
}

__attribute__((target("aes,sse2"))) void
aesniDecryptBlock(const std::uint8_t *inv_rk, const std::uint8_t *in,
                  std::uint8_t *out)
{
    const auto *rkp = reinterpret_cast<const __m128i *>(inv_rk);
    __m128i s = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(in)),
        _mm_loadu_si128(rkp));
#pragma GCC unroll 9
    for (int r = 1; r <= 9; ++r)
        s = _mm_aesdec_si128(s, _mm_loadu_si128(rkp + r));
    s = _mm_aesdeclast_si128(s, _mm_loadu_si128(rkp + 10));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), s);
}

#else // !SECUREDIMM_HAVE_AESNI_BUILD

bool
aesniAvailable()
{
    return false;
}

void
aesniExpandInv(const std::uint8_t *, std::uint8_t *)
{
    panic("aesni backend called on a non-x86 build");
}

void
aesniEncryptBlocks(const std::uint8_t *, const std::uint8_t *,
                   std::uint8_t *, std::size_t)
{
    panic("aesni backend called on a non-x86 build");
}

void
aesniCbcChains(const std::uint8_t *, std::uint8_t *,
               const std::uint8_t *const *, std::size_t, std::size_t)
{
    panic("aesni backend called on a non-x86 build");
}

void
aesniDecryptBlock(const std::uint8_t *, const std::uint8_t *,
                  std::uint8_t *)
{
    panic("aesni backend called on a non-x86 build");
}

#endif // SECUREDIMM_HAVE_AESNI_BUILD

} // namespace secdimm::crypto::detail

#include "crypto/ctr_mode.hh"

#include <algorithm>
#include <cstring>

namespace secdimm::crypto
{

namespace
{

/** Keystream lanes generated per encryptBlocks call. */
constexpr std::size_t kCtrLanes = 64;

/** Layout: nonce[0:8) | counter[8:12) folded | lane[12:16). */
void
buildCtrBlock(std::uint8_t *out, std::uint64_t nonce,
              std::uint64_t counter, std::uint32_t lane)
{
    std::memcpy(out, &nonce, 8);
    const std::uint32_t ctr_lo = static_cast<std::uint32_t>(counter);
    const std::uint32_t ctr_hi =
        static_cast<std::uint32_t>(counter >> 32) ^ lane;
    std::memcpy(out + 8, &ctr_lo, 4);
    std::memcpy(out + 12, &ctr_hi, 4);
}

/** data[0, n) ^= pad[0, n), eight bytes at a time. */
void
xorPad(std::uint8_t *data, const std::uint8_t *pad, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t d = 0;
        std::uint64_t p = 0;
        std::memcpy(&d, data + i, 8);
        std::memcpy(&p, pad + i, 8);
        d ^= p;
        std::memcpy(data + i, &d, 8);
    }
    for (; i < n; ++i)
        data[i] ^= pad[i];
}

} // namespace

Aes128Block
CtrCipher::pad(std::uint64_t nonce, std::uint64_t counter,
               std::uint32_t lane) const
{
    Aes128Block ctr_block{};
    buildCtrBlock(ctr_block.data(), nonce, counter, lane);
    return aes_.encrypt(ctr_block);
}

void
CtrCipher::transformBlock(BlockData &data, std::uint64_t nonce,
                          std::uint64_t counter) const
{
    transformBuffer(data.data(), data.size(), nonce, counter);
}

void
CtrCipher::transformBuffer(std::uint8_t *data, std::size_t len,
                           std::uint64_t nonce,
                           std::uint64_t counter) const
{
    bytes_ += len;
    // Counter blocks, encrypted in place into pads; every byte XORed
    // into data is written first.
    std::uint8_t pads[16 * kCtrLanes];
    std::uint32_t lane = 0;
    for (std::size_t off = 0; off < len;) {
        const std::size_t lanes = std::min<std::size_t>(
            kCtrLanes, (len - off + 15) / 16);
        for (std::size_t i = 0; i < lanes; ++i)
            buildCtrBlock(pads + 16 * i, nonce, counter,
                          lane + static_cast<std::uint32_t>(i));
        aes_.encryptBlocks(pads, pads, lanes);
        const std::size_t n = std::min<std::size_t>(16 * lanes, len - off);
        xorPad(data + off, pads, n);
        off += n;
        lane += static_cast<std::uint32_t>(lanes);
    }
}

} // namespace secdimm::crypto

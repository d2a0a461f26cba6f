#include "crypto/cmac.hh"

#include <algorithm>
#include <cstring>

namespace secdimm::crypto
{

namespace
{

/** Left-shift a 16-byte value by one bit, GF(2^128) doubling step. */
Aes128Block
leftShiftOne(const Aes128Block &in, bool &carry_out)
{
    Aes128Block out{};
    std::uint8_t carry = 0;
    for (int i = 15; i >= 0; --i) {
        out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
        carry = in[i] >> 7;
    }
    carry_out = carry != 0;
    return out;
}

Aes128Block
generateSubkey(const Aes128Block &l)
{
    bool carry = false;
    Aes128Block k = leftShiftOne(l, carry);
    if (carry)
        k[15] ^= 0x87; // Rb constant for 128-bit blocks.
    return k;
}

/** Blocks in prefix||msg under RFC 4493 padding (at least one). */
std::size_t
blockCount(const CmacJob &job)
{
    const std::size_t total = (job.prefix != nullptr ? 16 : 0) + job.len;
    return total == 0 ? 1 : (total + 15) / 16;
}

/** Full (non-final) block @p i of prefix||msg; always 16 bytes. */
void
middleBlock(const CmacJob &job, std::size_t i, std::uint8_t *out)
{
    const std::size_t pre = job.prefix != nullptr ? 16 : 0;
    if (pre != 0 && i == 0)
        std::memcpy(out, job.prefix, 16);
    else
        std::memcpy(out, job.msg + 16 * i - pre, 16);
}

/** Final block of prefix||msg, padded and subkey-mixed per RFC 4493. */
Aes128Block
finalBlock(const CmacJob &job, const Aes128Block &k1,
           const Aes128Block &k2)
{
    const std::size_t pre = job.prefix != nullptr ? 16 : 0;
    const std::size_t total = pre + job.len;
    const std::size_t start = 16 * (blockCount(job) - 1);

    Aes128Block last{};
    if (total != 0 && total % 16 == 0) {
        if (pre != 0 && start == 0)
            std::memcpy(last.data(), job.prefix, 16);
        else
            std::memcpy(last.data(), job.msg + start - pre, 16);
        return blockXor(last, k1);
    }
    // Incomplete final block never overlaps the 16-byte prefix: a
    // non-empty prefix forces total >= 16, pushing start past it.
    const std::size_t rem = total - start;
    if (rem != 0)
        std::memcpy(last.data(), job.msg + start - pre, rem);
    last[rem] = 0x80;
    return blockXor(last, k2);
}

} // namespace

Cmac::Cmac(const Aes128Key &key) : aes_(key)
{
    const Aes128Block l = aes_.encrypt(Aes128Block{});
    k1_ = generateSubkey(l);
    k2_ = generateSubkey(k1_);
}

Aes128Block
Cmac::computeOne(const std::uint8_t *prefix, const std::uint8_t *msg,
                 std::size_t len) const
{
    const CmacJob job{prefix, msg, len};
    const std::size_t n_blocks = blockCount(job);

    Aes128Block x{};
    std::uint8_t m[16];
    for (std::size_t i = 0; i + 1 < n_blocks; ++i) {
        middleBlock(job, i, m);
        for (std::size_t b = 0; b < 16; ++b)
            x[b] ^= m[b];
        x = aes_.encrypt(x);
    }
    return aes_.encrypt(blockXor(x, finalBlock(job, k1_, k2_)));
}

Aes128Block
Cmac::compute(const std::uint8_t *msg, std::size_t len) const
{
    ++tags_;
    return computeOne(nullptr, msg, len);
}

Aes128Block
Cmac::computeWithPrefix(const std::uint8_t *prefix,
                        const std::uint8_t *msg, std::size_t len) const
{
    ++tags_;
    return computeOne(prefix, msg, len);
}

void
Cmac::computeBatch(const CmacJob *jobs, std::size_t n,
                   Aes128Block *tags) const
{
    if (n == 0)
        return;
    ++batchCalls_;
    batchTags_ += n;
    tags_ += n;

    // Group the jobs by (has prefix, block count): every chain of a
    // group takes the same steps, so the group advances as one
    // cbcChains call with its states held in registers.
    const auto key = [jobs](std::uint32_t j) {
        return 2 * blockCount(jobs[j]) + (jobs[j].prefix != nullptr);
    };
    order_.resize(n);
    bool uniform = true;
    for (std::uint32_t j = 0; j < n; ++j) {
        order_[j] = j;
        uniform = uniform && key(j) == key(0);
    }
    if (!uniform) {
        std::sort(order_.begin(), order_.end(),
                  [&key](std::uint32_t a, std::uint32_t b) {
                      const std::size_t ka = key(a), kb = key(b);
                      return ka != kb ? ka < kb : a < b;
                  });
    }
    states_.assign(16 * n, 0);
    ptrs_.resize(n);
    for (std::size_t g = 0; g < n;) {
        const CmacJob &first = jobs[order_[g]];
        std::size_t end = g + 1;
        while (end < n && key(order_[end]) == key(order_[g]))
            ++end;
        const std::size_t m = end - g;
        std::uint8_t *state = states_.data() + 16 * g;
        // Every block but the last is a full middle block; with a
        // prefix, the first of them is the prefix.
        std::size_t middle = blockCount(first) - 1;
        if (first.prefix != nullptr && middle != 0) {
            for (std::size_t i = 0; i < m; ++i)
                ptrs_[i] = jobs[order_[g + i]].prefix;
            aes_.cbcChains(state, ptrs_.data(), m, 1);
            --middle;
        }
        if (middle != 0) {
            for (std::size_t i = 0; i < m; ++i)
                ptrs_[i] = jobs[order_[g + i]].msg;
            aes_.cbcChains(state, ptrs_.data(), m, middle);
        }
        g = end;
    }

    for (std::size_t i = 0; i < n; ++i) {
        const Aes128Block last = finalBlock(jobs[order_[i]], k1_, k2_);
        for (std::size_t b = 0; b < 16; ++b)
            states_[16 * i + b] ^= last[b];
    }
    aes_.encryptBlocks(states_.data(), states_.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(tags[order_[i]].data(), states_.data() + 16 * i, 16);
}

bool
Cmac::tagsEqual(const Aes128Block &a, const Aes128Block &b)
{
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return diff == 0;
}

} // namespace secdimm::crypto

#include "crypto/pmmac.hh"

#include <cstring>

namespace secdimm::crypto
{

namespace
{

/** The 16-byte (id || counter) header is exactly one CMAC block. */
void
buildHeader(std::uint8_t *out, std::uint64_t id, std::uint64_t counter)
{
    std::memcpy(out, &id, 8);
    std::memcpy(out + 8, &counter, 8);
}

Tag64
truncateTag(const Aes128Block &full)
{
    Tag64 t;
    std::memcpy(&t, full.data(), 8);
    return t;
}

/**
 * Branchless tag comparison: a data-dependent early exit (or a
 * compiler-synthesized branch on the XOR) would let an attacker with
 * a timing oracle distinguish near-miss forgeries from far ones.
 * Folding the 64-bit difference down to one bit keeps the instruction
 * stream identical for every (actual, expected) pair.
 */
bool
constantTimeTagEq(Tag64 a, Tag64 b)
{
    std::uint64_t diff = a ^ b;
    diff |= diff >> 32;
    diff |= diff >> 16;
    diff |= diff >> 8;
    diff |= diff >> 4;
    diff |= diff >> 2;
    diff |= diff >> 1;
    return (diff & 1u) == 0;
}

} // namespace

Tag64
Pmmac::tag(std::uint64_t id, std::uint64_t counter,
           const std::uint8_t *data, std::size_t len) const
{
    std::uint8_t header[16];
    buildHeader(header, id, counter);
    return truncateTag(cmac_.computeWithPrefix(header, data, len));
}

bool
Pmmac::verify(std::uint64_t id, std::uint64_t counter,
              const std::uint8_t *data, std::size_t len,
              Tag64 expected) const
{
    return constantTimeTagEq(tag(id, counter, data, len), expected);
}

void
Pmmac::tagBatch(const PmmacItem *items, std::size_t n,
                Tag64 *tags) const
{
    if (n == 0)
        return;
    headers_.resize(16 * n);
    jobs_.resize(n);
    full_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        buildHeader(headers_.data() + 16 * i, items[i].id,
                    items[i].counter);
        jobs_[i] = CmacJob{headers_.data() + 16 * i, items[i].data,
                           items[i].len};
    }
    cmac_.computeBatch(jobs_.data(), n, full_.data());
    for (std::size_t i = 0; i < n; ++i)
        tags[i] = truncateTag(full_[i]);
}

bool
Pmmac::verifyBatch(const PmmacItem *items, std::size_t n,
                   const Tag64 *expected, bool *ok) const
{
    actual_.resize(n);
    tagBatch(items, n, actual_.data());
    bool all = true;
    for (std::size_t i = 0; i < n; ++i) {
        ok[i] = constantTimeTagEq(actual_[i], expected[i]);
        all = all && ok[i];
    }
    return all;
}

} // namespace secdimm::crypto

/**
 * @file
 * Exhaustive tamper sweeps: every byte position of a MAC'd payload, a
 * stored bucket image, and a Split ORAM slice share is flipped in
 * turn, and each flip must be detected.  Small blocks keep the sweeps
 * exhaustive rather than sampled.
 */

#include <gtest/gtest.h>

#include "crypto/aes128.hh"
#include "crypto/pmmac.hh"
#include "oram/path_oram.hh"
#include "oram/tree_layout.hh"
#include "sdimm/split_oram.hh"

namespace secdimm::verify
{
namespace
{

TEST(TamperExhaustive, PmmacDetectsEveryByteFlip)
{
    const crypto::Pmmac mac(crypto::makeKey(0x77, 0x88));
    std::vector<std::uint8_t> msg(64);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 37 + 5);
    const std::uint64_t id = 42;
    const std::uint64_t ctr = 7;
    const crypto::Tag64 tag = mac.tag(id, ctr, msg.data(), msg.size());
    ASSERT_TRUE(mac.verify(id, ctr, msg.data(), msg.size(), tag));

    for (std::size_t i = 0; i < msg.size(); ++i) {
        for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
            msg[i] ^= flip;
            EXPECT_FALSE(
                mac.verify(id, ctr, msg.data(), msg.size(), tag))
                << "byte " << i << " flip 0x" << std::hex << int(flip);
            msg[i] ^= flip;
        }
    }
    // Identity, counter, and tag perturbations all fail too.
    EXPECT_FALSE(mac.verify(id + 1, ctr, msg.data(), msg.size(), tag));
    EXPECT_FALSE(mac.verify(id, ctr + 1, msg.data(), msg.size(), tag));
    EXPECT_FALSE(mac.verify(id, ctr, msg.data(), msg.size(), tag ^ 1));
    // And the original still verifies (the sweep restored every byte).
    EXPECT_TRUE(mac.verify(id, ctr, msg.data(), msg.size(), tag));
}

TEST(TamperExhaustive, BucketStoreDetectsEveryImageByteFlip)
{
    oram::OramParams p;
    p.levels = 4;
    p.stashCapacity = 200;
    oram::PathOram o(p, crypto::makeKey(0x1, 0x2),
                     crypto::makeKey(0x3, 0x4), 11);
    for (Addr a = 0; a < 16; ++a) {
        BlockData d{};
        d[0] = static_cast<std::uint8_t>(a);
        o.access(a, oram::OramOp::Write, &d);
    }

    const std::uint64_t seq = 0;
    const std::size_t image_bytes = o.store().rawImage(seq).size();
    ASSERT_GT(image_bytes, 0u);
    for (std::size_t i = 0; i < image_bytes; ++i) {
        o.store().tamperData(seq, i); // XORs 0x01 into byte i.
        EXPECT_FALSE(o.store().readBucket(seq).authentic)
            << "byte " << i << " of " << image_bytes;
        o.store().tamperData(seq, i); // Undo (XOR is an involution).
        EXPECT_TRUE(o.store().readBucket(seq).authentic)
            << "byte " << i << " failed to restore";
    }
}

TEST(TamperExhaustive, SplitSliceShareEveryByteFlipDetected)
{
    sdimm::SplitOram::Params sp;
    sp.tree.levels = 4;
    sp.tree.stashCapacity = 200;
    sp.slices = 2;
    sdimm::SplitOram o(sp, 13);

    // The root bucket lies on every path, so any access re-reads (and,
    // on write-back, re-MACs) it: tamper, access, expect exactly one
    // new integrity failure per swept byte.  Every byte of every
    // slot's share in every slice is swept, so a wrong slot or slice
    // offset into the slice arenas cannot pass.
    const oram::TreeLayout layout(sp.tree.levels,
                                  sp.tree.linesPerBucket());
    const std::uint64_t root_seq =
        layout.bucketSeq(oram::BucketPos{0, 0});
    const std::size_t share_bytes = blockBytes / sp.slices;

    BlockData d{};
    d[0] = 0xcd;
    o.access(0, oram::OramOp::Write, &d);
    ASSERT_EQ(o.stats().integrityFailures, 0u);

    std::uint64_t flips = 0;
    for (unsigned j = 0; j < sp.slices; ++j) {
        for (unsigned slot = 0; slot < sp.tree.bucketBlocks; ++slot) {
            for (std::size_t b = 0; b < share_bytes; ++b) {
                o.tamperSlice(j, root_seq, slot, b);
                o.access(flips % o.capacityBlocks(),
                         oram::OramOp::Read);
                ++flips;
                EXPECT_EQ(o.stats().integrityFailures, flips)
                    << "slice " << j << " slot " << slot
                    << " share byte " << b;
            }
        }
    }
    EXPECT_FALSE(o.integrityOk());
}

} // namespace
} // namespace secdimm::verify

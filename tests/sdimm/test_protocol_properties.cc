/**
 * @file
 * Property sweeps over the distributed protocols: correctness,
 * integrity, and obliviousness invariants across SDIMM counts and
 * tree shapes for both Independent and Split.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"

namespace secdimm::sdimm
{
namespace
{

BlockData
blockOf(std::uint64_t v)
{
    BlockData d{};
    for (int i = 0; i < 8; ++i)
        d[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
    return d;
}

// ---------------------------------------------------------------- //

using IndepParam = std::tuple<unsigned /*sdimms*/, double /*drainP*/>;

class IndependentSweep : public ::testing::TestWithParam<IndepParam>
{
  protected:
    IndependentOram
    make(std::uint64_t seed) const
    {
        IndependentOram::Params p;
        p.perSdimm.levels = 6;
        p.numSdimms = std::get<0>(GetParam());
        p.drainProb = std::get<1>(GetParam());
        return IndependentOram(p, seed);
    }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndependentSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0.1, 0.5)),
    [](const ::testing::TestParamInfo<IndepParam> &info) {
        return "S" + std::to_string(std::get<0>(info.param)) + "_p" +
               std::to_string(
                   static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST_P(IndependentSweep, ChurnCorrectness)
{
    IndependentOram oram = make(61);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram.access(a, oram::OramOp::Write, &d);
            expected[a] = v;
        } else {
            const auto it = expected.find(a);
            const BlockData want =
                it == expected.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
                << "addr " << a << " iter " << i;
        }
    }
    EXPECT_TRUE(oram.integrityOk());
}

TEST_P(IndependentSweep, AppendsAlwaysCoverEverySdimm)
{
    IndependentOram oram = make(67);
    const unsigned sdimms = std::get<0>(GetParam());
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    std::vector<int> appends(sdimms, 0);
    oram.attachObserver([&](TraceEventKind kind, std::uint64_t a) {
        if (kind == TraceEventKind::ShortCmd &&
            static_cast<SdimmCommandType>(a >> 8) ==
                SdimmCommandType::Append)
            ++appends[a & 0xff];
    });
    const int n = 40;
    for (int i = 0; i < n; ++i)
        oram.access(static_cast<Addr>(i % 5), oram::OramOp::Read);
    for (unsigned s = 0; s < sdimms; ++s)
        EXPECT_EQ(appends[s], n) << "sdimm " << s;
}

TEST_P(IndependentSweep, NoTransferQueueOverflow)
{
    IndependentOram oram = make(71);
    const BlockData v = blockOf(2);
    for (int i = 0; i < 400; ++i)
        oram.access(static_cast<Addr>(i % 30), oram::OramOp::Write, &v);
    for (unsigned s = 0; s < std::get<0>(GetParam()); ++s) {
        EXPECT_EQ(oram.buffer(s).transferQueue().stats().overflows, 0u)
            << "sdimm " << s;
    }
}

// ---------------------------------------------------------------- //

using SplitParam = std::tuple<unsigned /*slices*/, unsigned /*levels*/>;

class SplitSweep : public ::testing::TestWithParam<SplitParam>
{
  protected:
    SplitOram
    make(std::uint64_t seed) const
    {
        SplitOram::Params p;
        p.slices = std::get<0>(GetParam());
        p.tree.levels = std::get<1>(GetParam());
        return SplitOram(p, seed);
    }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(5u, 7u)),
    [](const ::testing::TestParamInfo<SplitParam> &info) {
        return "S" + std::to_string(std::get<0>(info.param)) + "_L" +
               std::to_string(std::get<1>(info.param));
    });

TEST_P(SplitSweep, ChurnCorrectness)
{
    SplitOram oram = make(73);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(9);
    for (int i = 0; i < 250; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram.access(a, oram::OramOp::Write, &d);
            expected[a] = v;
        } else {
            const auto it = expected.find(a);
            const BlockData want =
                it == expected.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
                << "addr " << a << " iter " << i;
        }
    }
    EXPECT_TRUE(oram.integrityOk());
}

TEST_P(SplitSweep, TamperInAnySliceDetected)
{
    SplitOram oram = make(79);
    const unsigned slices = std::get<0>(GetParam());
    const BlockData v = blockOf(5);
    oram.access(0, oram::OramOp::Write, &v);
    // Tamper with the LAST slice's root-bucket share: any slice's MAC
    // must protect its share.
    oram.tamperSlice(slices - 1, 0, 0, 0);
    oram.access(0, oram::OramOp::Read);
    EXPECT_FALSE(oram.integrityOk());
}

TEST_P(SplitSweep, ShareSizesPartitionBlock)
{
    const unsigned slices = std::get<0>(GetParam());
    std::vector<std::uint8_t> full(blockBytes);
    for (std::size_t i = 0; i < full.size(); ++i)
        full[i] = static_cast<std::uint8_t>(i);
    std::size_t total = 0;
    std::vector<std::uint8_t> rebuilt(blockBytes, 0);
    std::vector<std::uint8_t> share(blockBytes);
    for (unsigned j = 0; j < slices; ++j) {
        const std::size_t n = extractShare(full, j, slices, share);
        total += n;
        EXPECT_EQ(mergeShare(rebuilt, std::span(share).first(n), j,
                             slices),
                  n);
    }
    EXPECT_EQ(total, blockBytes);
    EXPECT_EQ(rebuilt, full);
}

TEST_P(SplitSweep, LocalTrafficDominatesChannel)
{
    SplitOram oram = make(83);
    const BlockData v = blockOf(7);
    for (int i = 0; i < 40; ++i)
        oram.access(static_cast<Addr>(i), oram::OramOp::Write, &v);
    EXPECT_GT(oram.stats().localBytes, oram.stats().channelBytes / 2);
}

} // namespace
} // namespace secdimm::sdimm

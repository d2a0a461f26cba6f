/**
 * @file
 * Property sweeps over Path ORAM shapes: the core invariants must
 * hold for every (levels, Z, stash) combination, not just the Table
 * II point.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "oram/path_oram.hh"

namespace secdimm::oram
{
namespace
{

using ShapeParam = std::tuple<unsigned /*levels*/, unsigned /*Z*/>;

class PathOramShapes : public ::testing::TestWithParam<ShapeParam>
{
  protected:
    OramParams
    params() const
    {
        OramParams p;
        p.levels = std::get<0>(GetParam());
        p.bucketBlocks = std::get<1>(GetParam());
        p.stashCapacity = 250;
        return p;
    }

    std::unique_ptr<PathOram>
    make(std::uint64_t seed) const
    {
        return std::make_unique<PathOram>(
            params(), crypto::makeKey(0x10, seed),
            crypto::makeKey(0x20, seed), seed);
    }

    static BlockData
    blockOf(std::uint64_t v)
    {
        BlockData d{};
        for (int i = 0; i < 8; ++i)
            d[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
        return d;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PathOramShapes,
    ::testing::Combine(::testing::Values(5u, 7u, 9u),
                       ::testing::Values(2u, 4u, 6u)),
    [](const ::testing::TestParamInfo<ShapeParam> &info) {
        return "L" + std::to_string(std::get<0>(info.param)) + "_Z" +
               std::to_string(std::get<1>(info.param));
    });

TEST_P(PathOramShapes, ReadYourWritesUnderChurn)
{
    auto oram = make(41);
    const std::uint64_t capacity = params().capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram->access(a, OramOp::Write, &d);
            expected[a] = v;
        } else {
            const auto it = expected.find(a);
            const BlockData want =
                it == expected.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(oram->access(a, OramOp::Read), want)
                << "addr " << a << " iter " << i;
        }
    }
    EXPECT_TRUE(oram->integrityOk());
}

TEST_P(PathOramShapes, StashNeverExceedsCapacity)
{
    auto oram = make(43);
    const std::uint64_t capacity = params().capacityBlocks();
    const BlockData v = blockOf(1);
    for (std::uint64_t i = 0; i < 2 * capacity; ++i)
        oram->access(i % capacity, OramOp::Write, &v);
    EXPECT_LE(oram->stash().maxSizeSeen(), params().stashCapacity);
}

TEST_P(PathOramShapes, LeafDistributionUniform)
{
    auto oram = make(47);
    const BlockData v = blockOf(1);
    oram->access(0, OramOp::Write, &v);
    const unsigned bins = 8;
    std::vector<double> counts(bins, 0);
    const int n = 1200;
    for (int i = 0; i < n; ++i) {
        counts[oram->leafOf(0) % bins] += 1;
        oram->access(0, OramOp::Read);
    }
    const double expect = static_cast<double>(n) / bins;
    double chi2 = 0;
    for (double c : counts)
        chi2 += (c - expect) * (c - expect) / expect;
    // 7 dof; 24.3 is the p=0.001 cutoff.
    EXPECT_LT(chi2, 30.0);
}

TEST_P(PathOramShapes, TamperAnywhereDetected)
{
    auto oram = make(53);
    const BlockData v = blockOf(9);
    oram->access(1, OramOp::Write, &v);
    Rng rng(11);
    // Corrupt five random buckets; enough accesses must trip at
    // least one MAC check (the root is on every path).
    oram->store().tamperData(0, 1); // Root: always read.
    for (int i = 0; i < 4; ++i) {
        oram->store().tamperData(
            rng.nextBelow(oram->store().numBuckets()), 2);
    }
    oram->access(1, OramOp::Read);
    EXPECT_FALSE(oram->integrityOk());
}

TEST_P(PathOramShapes, DeterministicPerSeed)
{
    auto a = make(99);
    auto b = make(99);
    const BlockData v = blockOf(3);
    for (int i = 0; i < 60; ++i) {
        ASSERT_EQ(a->leafOf(static_cast<Addr>(i % 7)),
                  b->leafOf(static_cast<Addr>(i % 7)));
        a->access(static_cast<Addr>(i % 7), OramOp::Write, &v);
        b->access(static_cast<Addr>(i % 7), OramOp::Write, &v);
    }
    EXPECT_EQ(a->stashSize(), b->stashSize());
}

} // namespace
} // namespace secdimm::oram

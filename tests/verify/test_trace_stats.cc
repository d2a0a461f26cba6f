/**
 * @file
 * Unit tests of the marginal pair statistics (trace_stats.hh):
 * identical traces read 0, same-distribution traces read sample
 * noise, disjoint address regions / mismatched kinds / mismatched
 * counts read their exact distances, and driveBackend honours the
 * MemoryBackend contract.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/system_config.hh"
#include "util/rng.hh"
#include "verify/trace_stats.hh"

namespace secdimm::verify
{
namespace
{

std::vector<TraceEvent>
uniformTrace(std::uint64_t seed, std::size_t n, std::uint64_t lo,
             std::uint64_t span,
             TraceEventKind kind = TraceEventKind::Read)
{
    Rng rng(seed);
    std::vector<TraceEvent> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        t.push_back(TraceEvent{kind, lo + rng.nextBelow(span), i});
    return t;
}

TEST(TraceChecker, IdenticalTracesIndistinguishable)
{
    const auto t = uniformTrace(1, 2000, 0, 1 << 16);
    const TraceComparison c = compareTraces(t, t);
    EXPECT_DOUBLE_EQ(c.addressDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.kindDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 0.0);
}

TEST(TraceChecker, SameDistributionIndistinguishable)
{
    // Two 8000-sample uniform histograms over 64 bins differ by about
    // sqrt(64 / (pi * 8000)) ~= 0.05 in TV from sample noise alone.
    const auto a = uniformTrace(11, 8000, 0, 1 << 16);
    const auto b = uniformTrace(77, 8000, 0, 1 << 16);
    const TraceComparison c = compareTraces(a, b);
    EXPECT_GT(c.addressDistance, 0.0);
    EXPECT_LT(c.addressDistance, 0.1);
    EXPECT_DOUBLE_EQ(c.kindDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 0.0);
}

TEST(TraceChecker, DisjointRegionsDistinguishable)
{
    const auto a = uniformTrace(11, 4000, 0, 1 << 12);
    const auto b = uniformTrace(77, 4000, 1 << 20, 1 << 12);
    EXPECT_GT(compareTraces(a, b).addressDistance, 0.9);
}

TEST(TraceChecker, EmptyPairIndistinguishable)
{
    const TraceComparison c = compareTraces({}, {});
    EXPECT_DOUBLE_EQ(c.addressDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.kindDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 0.0);
}

TEST(TraceChecker, OneSidedEmptyDistinguishable)
{
    const auto a = uniformTrace(1, 100, 0, 64);
    const TraceComparison c = compareTraces(a, {});
    EXPECT_DOUBLE_EQ(c.addressDistance, 1.0);
    EXPECT_DOUBLE_EQ(c.kindDistance, 1.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 1.0);
}

TEST(TraceChecker, CountMismatchDistinguishable)
{
    const auto a = uniformTrace(11, 8000, 0, 1 << 16);
    const auto b = uniformTrace(77, 4000, 0, 1 << 16);
    EXPECT_NEAR(compareTraces(a, b).countRatioDelta, 0.5, 1e-9);
}

TEST(TraceChecker, KindMismatchDistinguishable)
{
    const auto a =
        uniformTrace(11, 4000, 0, 1 << 12, TraceEventKind::Read);
    const auto b =
        uniformTrace(11, 4000, 0, 1 << 12, TraceEventKind::Write);
    const TraceComparison c = compareTraces(a, b);
    EXPECT_DOUBLE_EQ(c.kindDistance, 1.0);
    EXPECT_DOUBLE_EQ(c.addressDistance, 0.0);
}

TEST(DriveBackend, CompletesEveryAccess)
{
    const core::SystemConfig cfg =
        core::makeConfig(core::DesignPoint::NonSecure, 12, 4);
    auto backend = core::buildBackend(cfg, 1);
    std::map<std::uint64_t, unsigned> completions;
    backend->setCompletionCallback(
        [&](std::uint64_t id, Tick) { ++completions[id]; });

    std::vector<std::pair<Addr, bool>> accesses;
    for (unsigned i = 0; i < 24; ++i)
        accesses.emplace_back(Addr{i} * 8191 * 64, i % 2 == 0);
    const Tick end = driveBackend(*backend, accesses);

    EXPECT_GT(end, 0u);
    EXPECT_TRUE(backend->idle());
    ASSERT_EQ(completions.size(), accesses.size());
    for (const auto &kv : completions)
        EXPECT_EQ(kv.second, 1u) << "id " << kv.first;
}

} // namespace
} // namespace secdimm::verify

/**
 * @file
 * Unit tests of the second-order pair statistics (trace_stats.hh):
 * series extraction, lag-k autocorrelation, the ACF delta and the
 * differential gap profile -- and the property they exist for: a
 * deliberately leaky control that every marginal statistic of the
 * calibrated gate passes and a second-order statistic FAILS.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_stats.hh"

namespace secdimm::verify
{
namespace
{

/** A synthetic trace: uniform addresses, uniform-ish rhythm, with an
 *  optional secret-keyed distortion applied by the caller. */
std::vector<TraceEvent>
syntheticTrace(std::uint64_t seed, std::size_t n,
               std::uint64_t addr_space = 256, Tick step = 10)
{
    Rng rng(seed);
    std::vector<TraceEvent> t;
    t.reserve(n);
    Tick at = 0;
    for (std::size_t i = 0; i < n; ++i) {
        at += step + rng.nextBelow(3); // Benign jitter.
        t.push_back(TraceEvent{TraceEventKind::StoreRead,
                               rng.nextBelow(addr_space), at});
    }
    return t;
}

TEST(TimingSeries, ExtractionBasics)
{
    std::vector<TraceEvent> t;
    t.push_back(TraceEvent{TraceEventKind::StoreRead, 5, 100});
    t.push_back(TraceEvent{TraceEventKind::StoreWrite, 9, 130});
    t.push_back(TraceEvent{TraceEventKind::StoreRead, 2, 130});

    const std::vector<double> addrs = addressSeries(t);
    ASSERT_EQ(addrs.size(), 3u);
    EXPECT_DOUBLE_EQ(addrs[0], 5.0);
    EXPECT_DOUBLE_EQ(addrs[2], 2.0);

    const std::vector<double> gaps = gapSeries(t);
    ASSERT_EQ(gaps.size(), 2u);
    EXPECT_DOUBLE_EQ(gaps[0], 30.0);
    EXPECT_DOUBLE_EQ(gaps[1], 0.0);
}

TEST(TimingSeries, GapSeriesClampsNonMonotoneTicks)
{
    // Merged multi-source traces can interleave ticks out of order;
    // the gap series clamps at zero instead of going negative.
    std::vector<TraceEvent> t;
    t.push_back(TraceEvent{TraceEventKind::StoreRead, 1, 100});
    t.push_back(TraceEvent{TraceEventKind::StoreRead, 2, 60});
    const std::vector<double> gaps = gapSeries(t);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_DOUBLE_EQ(gaps[0], 0.0);
}

TEST(TimingSeries, EmptyAndSingletonAreSafe)
{
    EXPECT_TRUE(addressSeries({}).empty());
    EXPECT_TRUE(gapSeries({}).empty());
    std::vector<TraceEvent> one{
        TraceEvent{TraceEventKind::StoreRead, 1, 5}};
    EXPECT_TRUE(gapSeries(one).empty());
}

TEST(Autocorrelation, ConstantSeriesIsZero)
{
    const std::vector<double> c(100, 7.0);
    EXPECT_DOUBLE_EQ(lagAutocorrelation(c, 1), 0.0);
    EXPECT_DOUBLE_EQ(lagAutocorrelation({}, 1), 0.0);
    EXPECT_DOUBLE_EQ(lagAutocorrelation({1.0, 2.0}, 5), 0.0);
}

TEST(Autocorrelation, AlternatingSeriesIsNegativeAtLag1)
{
    std::vector<double> s;
    for (int i = 0; i < 200; ++i)
        s.push_back(i % 2 ? 1.0 : -1.0);
    EXPECT_LT(lagAutocorrelation(s, 1), -0.9);
    EXPECT_GT(lagAutocorrelation(s, 2), 0.9);
}

TEST(Autocorrelation, RandomSeriesIsNearZero)
{
    Rng rng(42);
    std::vector<double> s;
    for (int i = 0; i < 4000; ++i)
        s.push_back(static_cast<double>(rng.nextBelow(1000)));
    EXPECT_LT(std::abs(lagAutocorrelation(s, 1)), 0.06);
    EXPECT_LT(std::abs(lagAutocorrelation(s, 5)), 0.06);
}

/** max_k |ACF delta| of two traces' address series. */
double
addressAcfDelta(const std::vector<TraceEvent> &a,
                const std::vector<TraceEvent> &b)
{
    return maxAcfDelta(acfProfile(addressSeries(a)),
                       acfProfile(addressSeries(b)));
}

TEST(AcfComparison, SameProcessPasses)
{
    // Two draws of one process sit within a few white-noise standard
    // errors, sqrt(1/800 + 1/800) = 0.05.
    const auto a = syntheticTrace(1, 800);
    const auto b = syntheticTrace(2, 800);
    EXPECT_LT(addressAcfDelta(a, b), 0.2);
    EXPECT_EQ(acfProfile(addressSeries(a)).size(), maxLag);
}

TEST(AcfComparison, SortedWindowsFail)
{
    const auto a = syntheticTrace(1, 800);
    const auto b = injectOrderingLeak(syntheticTrace(2, 800), 8);
    EXPECT_GT(addressAcfDelta(a, b), 0.3);
}

TEST(GapProfile, SameProcessPasses)
{
    const auto a = syntheticTrace(6, 900);
    const auto b = syntheticTrace(7, 900);
    const GapProfileComparison c = compareGapProfiles(a, b);
    EXPECT_LT(c.maxDelta, 0.1);
    EXPECT_EQ(c.binsCompared, gapProfileBins);
    EXPECT_FALSE(c.degenerate);
}

TEST(GapProfile, SharedBenignStructureCancels)
{
    // Both traces stall on the SAME address band (think row-buffer
    // miss latency): the differential profile must not move.
    const auto a = injectTimingLeak(syntheticTrace(8, 900), 0, 64, 30);
    const auto b = injectTimingLeak(syntheticTrace(9, 900), 0, 64, 30);
    EXPECT_LT(compareGapProfiles(a, b).maxDelta, 0.25);
}

TEST(GapProfile, BothUntimedIsVacuousPass)
{
    auto a = syntheticTrace(12, 300);
    auto b = syntheticTrace(13, 300);
    for (TraceEvent &e : a)
        e.at = 0;
    for (TraceEvent &e : b)
        e.at = 0;
    const GapProfileComparison c = compareGapProfiles(a, b);
    EXPECT_DOUBLE_EQ(c.maxDelta, 0.0);
    EXPECT_TRUE(c.degenerate);
}

/* ------------------------------------------------------------------ */
/* The leaky controls through the calibrated gate                      */
/* ------------------------------------------------------------------ */

/**
 * The calibrated gate over one synthetic trace of @p n events per
 * run, drawn from the run's own seed; under secret 1 the trace goes
 * through @p leak first.
 */
template <typename Leak>
CalibratedComparison
syntheticGate(std::size_t n, Leak &&leak)
{
    return compareCalibrated([&](unsigned secret, std::uint64_t draw) {
        Observation o;
        std::vector<TraceEvent> t = syntheticTrace(5000 + draw, n);
        o.shardTraces.push_back(secret ? leak(std::move(t)) : t);
        return o;
    });
}

/** Every marginal statistic (address, kind, count) passes. */
void
expectMarginalsPass(const CalibratedComparison &c)
{
    for (const char *stat : {"shard0.addr_tv", "shard0.kind_tv",
                             "shard0.count_delta"})
        EXPECT_TRUE(c.passes(stat)) << stat << ": " << c.summary();
}

std::vector<TraceEvent>
untimed(std::vector<TraceEvent> t)
{
    for (TraceEvent &e : t)
        e.at = 0;
    return t;
}

TEST(GapProfile, OneSidedSlowPathFails)
{
    const CalibratedComparison c =
        syntheticGate(900, [](std::vector<TraceEvent> t) {
            return injectTimingLeak(std::move(t), 0, 64, 60);
        });
    EXPECT_FALSE(c.pass) << c.summary();
    EXPECT_FALSE(c.passes("shard0.gap_profile")) << c.summary();
}

TEST(GapProfile, OneSidedTickingFails)
{
    // One secret's channel carries a clock, the other's does not:
    // structurally different visible channels.
    const CalibratedComparison c = syntheticGate(300, untimed);
    EXPECT_FALSE(c.pass) << c.summary();
    EXPECT_FALSE(c.passes("shard0.gap_profile")) << c.summary();
}

TEST(DeepCompare, SameProcessPasses)
{
    const CalibratedComparison c =
        syntheticGate(3000, [](std::vector<TraceEvent> t) { return t; });
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(DeepCompare, OrderingLeakPassesV1FailsV2)
{
    // THE acceptance property: same multiset of (kind, addr), same
    // timestamps -- the marginal statistics provably cannot see the
    // difference, the address ACF must.
    const CalibratedComparison c =
        syntheticGate(3000, [](std::vector<TraceEvent> t) {
            return injectOrderingLeak(std::move(t), 8);
        });
    EXPECT_FALSE(c.pass) << c.summary();
    expectMarginalsPass(c);
    EXPECT_FALSE(c.passes("shard0.acf_addr")) << c.summary();
}

TEST(DeepCompare, TimingLeakPassesV1FailsV2)
{
    const CalibratedComparison c =
        syntheticGate(3000, [](std::vector<TraceEvent> t) {
            return injectTimingLeak(std::move(t), 0, 128, 60);
        });
    EXPECT_FALSE(c.pass) << c.summary();
    expectMarginalsPass(c);
    EXPECT_FALSE(c.passes("shard0.acf_gap") &&
                 c.passes("shard0.gap_profile"))
        << c.summary();
}

TEST(DeepCompare, UntimedFunctionalTracesStillOrderChecked)
{
    // No timestamps on either side: gap statistics go vacuous, but
    // the address-order ACF still works and still catches sorted
    // windows.
    const auto gate = [](std::size_t window) {
        return compareCalibrated([&](unsigned secret, std::uint64_t draw) {
            Observation o;
            std::vector<TraceEvent> t =
                untimed(syntheticTrace(6000 + draw, 3000));
            o.shardTraces.push_back(
                secret && window ? injectOrderingLeak(std::move(t), window)
                                 : t);
            return o;
        });
    };
    const CalibratedComparison honest = gate(0);
    EXPECT_TRUE(honest.pass) << honest.summary();
    const CalibratedComparison leaky = gate(8);
    EXPECT_FALSE(leaky.pass) << leaky.summary();
    EXPECT_FALSE(leaky.passes("shard0.acf_addr")) << leaky.summary();
}

} // namespace
} // namespace secdimm::verify

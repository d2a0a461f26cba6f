/**
 * @file
 * Tests of the quantitative leak meter (leak_meter.hh): the MI
 * estimator's calibration (zero for independence, log2|X| for a
 * deterministic channel, CI behaviour), the PLB locality experiment
 * (Freecursive measures a nonzero leak, flat PosMap designs measure
 * ~zero -- the paper's Section II-D claim turned into a number), the
 * marginal-preservation contracts of the leaky-control transforms,
 * the schedule controls and the calibrated gate itself, and
 * determinism of the whole pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/rng.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_stats.hh"

namespace secdimm::verify
{
namespace
{

MiOptions
fastMi()
{
    MiOptions o;
    o.bootstrap = 80;
    return o;
}

TEST(MiEstimator, IndependentSymbolsMeasureZero)
{
    Rng rng(11);
    std::vector<unsigned> x, y;
    for (int i = 0; i < 2000; ++i) {
        x.push_back(static_cast<unsigned>(rng.nextBelow(2)));
        y.push_back(static_cast<unsigned>(rng.nextBelow(8)));
    }
    const MiEstimate e = estimateMutualInformation(x, y, fastMi());
    EXPECT_LT(e.bitsPerAccess, 0.01) << e.summary();
    EXPECT_FALSE(e.leakDetected()) << e.summary();
    EXPECT_EQ(e.samples, x.size());
    // The raw plug-in estimate is biased upward; the correction must
    // have removed roughly that bias.
    EXPECT_GE(e.rawBits, 0.0);
    EXPECT_GE(e.biasBits, 0.0);
}

TEST(MiEstimator, DeterministicChannelMeasuresEntropy)
{
    // y == x over a uniform 4-symbol alphabet: I(X;Y) = 2 bits.
    Rng rng(12);
    std::vector<unsigned> x;
    for (int i = 0; i < 2000; ++i)
        x.push_back(static_cast<unsigned>(rng.nextBelow(4)));
    const MiEstimate e = estimateMutualInformation(x, x, fastMi());
    EXPECT_NEAR(e.bitsPerAccess, 2.0, 0.05) << e.summary();
    EXPECT_TRUE(e.leakDetected());
    EXPECT_GT(e.ciLow, 1.9);
    EXPECT_LT(e.ciHigh, 2.1);
}

TEST(MiEstimator, NoisyChannelMeasuresBetween)
{
    // y leaks x through 25% symbol noise: 0 << I < 1 bit.
    Rng rng(13);
    std::vector<unsigned> x, y;
    for (int i = 0; i < 3000; ++i) {
        const unsigned xi = static_cast<unsigned>(rng.nextBelow(2));
        const bool flip = rng.nextBelow(4) == 0;
        x.push_back(xi);
        y.push_back(flip ? 1 - xi : xi);
    }
    const MiEstimate e = estimateMutualInformation(x, y, fastMi());
    EXPECT_TRUE(e.leakDetected()) << e.summary();
    EXPECT_GT(e.bitsPerAccess, 0.1);
    EXPECT_LT(e.bitsPerAccess, 1.0);
    EXPECT_LE(e.ciLow, e.bitsPerAccess);
    EXPECT_GE(e.ciHigh, e.bitsPerAccess);
}

TEST(MiEstimator, WideAlphabetsAreRangeBinned)
{
    // Alphabet far beyond maxSymbols: the estimator bins instead of
    // exploding the joint table; y = x >> 6 is still fully dependent.
    std::vector<unsigned> x, y;
    Rng rng(14);
    for (int i = 0; i < 3000; ++i) {
        const unsigned v = static_cast<unsigned>(rng.nextBelow(4096));
        x.push_back(v);
        y.push_back(v >> 6);
    }
    const MiEstimate e = estimateMutualInformation(x, y, fastMi());
    EXPECT_TRUE(e.leakDetected()) << e.summary();
    EXPECT_GT(e.bitsPerAccess, 1.0);
}

TEST(MiEstimator, DeterministicAcrossRuns)
{
    Rng rng(15);
    std::vector<unsigned> x, y;
    for (int i = 0; i < 500; ++i) {
        x.push_back(static_cast<unsigned>(rng.nextBelow(3)));
        y.push_back(static_cast<unsigned>(rng.nextBelow(5)));
    }
    const MiEstimate a = estimateMutualInformation(x, y, fastMi());
    const MiEstimate b = estimateMutualInformation(x, y, fastMi());
    EXPECT_DOUBLE_EQ(a.bitsPerAccess, b.bitsPerAccess);
    EXPECT_DOUBLE_EQ(a.ciLow, b.ciLow);
    EXPECT_DOUBLE_EQ(a.ciHigh, b.ciHigh);
}

/* ------------------------------------------------------------------ */
/* The PLB locality experiment                                         */
/* ------------------------------------------------------------------ */

PlbLeakOptions
fastLeak(std::uint64_t seed)
{
    PlbLeakOptions o;
    o.requests = 1200;
    // Deep enough that the first PosMap level exceeds the on-chip
    // capacity: shallower trees hold the whole PosMap on-chip and
    // recursion depth stops varying (no leak left to measure).
    o.dataLevels = 11;
    o.seed = seed;
    o.mi.bootstrap = 80;
    return o;
}

TEST(PlbLeak, FreecursiveMeasuresNonzeroLeak)
{
    // The acceptance criterion: MI between the secret locality phase
    // and the visible activity is nonzero with CI excluding zero.
    const LeakReport r =
        measurePlbLocalityLeak(LeakDesign::Freecursive, fastLeak(3));
    EXPECT_TRUE(r.mi.leakDetected()) << r.summary();
    EXPECT_GT(r.mi.bitsPerAccess, 0.05) << r.summary();
    // The mechanism: scatter phases miss the PLB and recurse deeper,
    // so they emit visibly more tree accesses per request.
    EXPECT_GT(r.meanVisibleScatter, r.meanVisibleLocal * 1.2);
    EXPECT_EQ(r.design, "Freecursive");
    EXPECT_EQ(r.requests, fastLeak(3).requests);
}

TEST(PlbLeak, PathOramMeasuresZero)
{
    // Flat PosMap: exactly one tree access per request, no matter the
    // locality phase.  The estimator must report a CI containing 0.
    const LeakReport r =
        measurePlbLocalityLeak(LeakDesign::PathOram, fastLeak(4));
    EXPECT_FALSE(r.mi.leakDetected()) << r.summary();
    EXPECT_LT(r.mi.bitsPerAccess, 0.01);
    EXPECT_DOUBLE_EQ(r.meanVisibleLocal, r.meanVisibleScatter);
}

TEST(PlbLeak, GenericHarnessMatchesConstantChannel)
{
    // A synthetic protocol whose visible count is constant per access
    // must measure zero through the generic entry point.
    std::uint64_t visible = 0;
    const LeakReport r = measureLocalityLeakWith(
        "Constant", 1024, fastLeak(5), [&](Addr) { visible += 3; },
        [&] { return visible; });
    EXPECT_FALSE(r.mi.leakDetected()) << r.summary();
    EXPECT_EQ(r.design, "Constant");
    EXPECT_DOUBLE_EQ(r.meanVisibleLocal, 3.0);
}

TEST(PlbLeak, GenericHarnessCatchesPhaseKeyedChannel)
{
    // A synthetic protocol that emits one extra event when the
    // address falls in a small window (i.e. during local phases).
    std::uint64_t visible = 0;
    std::uint64_t last_base = ~std::uint64_t{0};
    const LeakReport r = measureLocalityLeakWith(
        "Leaky", 1024, fastLeak(6),
        [&](Addr a) {
            // Heuristic locality detector standing in for a PLB: hit
            // when the address repeats a recent 16-block frame.
            const std::uint64_t base = a / 16;
            visible += base == last_base ? 1 : 3;
            last_base = base;
        },
        [&] { return visible; });
    EXPECT_TRUE(r.mi.leakDetected()) << r.summary();
}

TEST(PlbLeak, ReportJsonHasTheContractFields)
{
    const LeakReport r =
        measurePlbLocalityLeak(LeakDesign::PathOram, fastLeak(7));
    const std::string j = r.toJson();
    for (const char *key :
         {"\"design\"", "\"mi_bits_per_access\"", "\"ci_low\"",
          "\"ci_high\"", "\"leak_detected\"", "\"requests\"",
          "\"mean_visible_local\"", "\"mean_visible_scatter\""}) {
        EXPECT_NE(j.find(key), std::string::npos)
            << "missing " << key << " in " << j;
    }
}

TEST(PlbLeak, DeterministicAcrossRuns)
{
    const LeakReport a =
        measurePlbLocalityLeak(LeakDesign::Freecursive, fastLeak(8));
    const LeakReport b =
        measurePlbLocalityLeak(LeakDesign::Freecursive, fastLeak(8));
    EXPECT_DOUBLE_EQ(a.mi.bitsPerAccess, b.mi.bitsPerAccess);
    EXPECT_DOUBLE_EQ(a.meanVisibleLocal, b.meanVisibleLocal);
}

/* ------------------------------------------------------------------ */
/* Leaky-control transforms                                            */
/* ------------------------------------------------------------------ */

std::vector<TraceEvent>
rhythmTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<TraceEvent> t;
    Tick at = 0;
    for (std::size_t i = 0; i < n; ++i) {
        at += 10;
        t.push_back(TraceEvent{i % 3 ? TraceEventKind::StoreRead
                                     : TraceEventKind::StoreWrite,
                               rng.nextBelow(128), at});
    }
    return t;
}

TEST(LeakControls, OrderingLeakPreservesMarginalsExactly)
{
    const auto base = rhythmTrace(21, 400);
    const auto leaky = injectOrderingLeak(base, 8);
    ASSERT_EQ(leaky.size(), base.size());

    // Same multiset of (kind, addr); identical timestamp sequence.
    auto key = [](const TraceEvent &e) {
        return (static_cast<std::uint64_t>(e.kind) << 56) | e.addr;
    };
    std::vector<std::uint64_t> ka, kb;
    for (std::size_t i = 0; i < base.size(); ++i) {
        ka.push_back(key(base[i]));
        kb.push_back(key(leaky[i]));
        EXPECT_EQ(base[i].at, leaky[i].at);
    }
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
    EXPECT_EQ(ka, kb);

    // Which is WHY no marginal statistic can possibly flag it.
    const TraceComparison c = compareTraces(base, leaky);
    EXPECT_DOUBLE_EQ(c.addressDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.kindDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 0.0);
}

TEST(LeakControls, TimingLeakPreservesEventSequence)
{
    const auto base = rhythmTrace(22, 400);
    const auto leaky = injectTimingLeak(base, 0, 64, 40);
    ASSERT_EQ(leaky.size(), base.size());
    Tick carried = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].kind, leaky[i].kind);
        EXPECT_EQ(base[i].addr, leaky[i].addr);
        EXPECT_GE(leaky[i].at, base[i].at + carried);
        if (base[i].addr < 64)
            carried += 40;
    }
    const TraceComparison c = compareTraces(base, leaky);
    EXPECT_DOUBLE_EQ(c.addressDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.kindDistance, 0.0);
    EXPECT_DOUBLE_EQ(c.countRatioDelta, 0.0);
}

/* ------------------------------------------------------------------ */
/* Schedule recording and comparison                                   */
/* ------------------------------------------------------------------ */

TEST(Schedules, RecorderAssignsGlobalSeq)
{
    ScheduleRecorder rec;
    rec.record(2, false);
    rec.record(0, true);
    rec.record(1, false);
    const auto ev = rec.events();
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_EQ(ev[0].shard, 2u);
    EXPECT_TRUE(ev[1].write);
    EXPECT_EQ(ev[2].seq, 2u);
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
}

TEST(Schedules, TraceRenderingMapsShardToAddr)
{
    std::vector<ScheduleEvent> s{{3, false, 0}, {1, true, 1}};
    const auto t = scheduleToTrace(s);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].addr, 3u);
    EXPECT_EQ(t[1].addr, 1u);
    EXPECT_EQ(t[1].at, Tick{1});
}

std::vector<ScheduleEvent>
randomSchedule(std::uint64_t seed, std::size_t n, unsigned shards)
{
    Rng rng(seed);
    std::vector<ScheduleEvent> s;
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(ScheduleEvent{
            static_cast<unsigned>(rng.nextBelow(shards)),
            rng.nextBelow(2) == 0, i});
    return s;
}

/**
 * The calibrated gate over one random 4-shard schedule of @p n
 * requests per run, drawn from the run's own seed; under secret 1
 * the schedule goes through @p leak first.
 */
template <typename Leak>
CalibratedComparison
scheduleGate(std::size_t n, Leak &&leak)
{
    return compareCalibrated([&](unsigned secret, std::uint64_t draw) {
        Observation o;
        o.schedule = randomSchedule(7000 + draw, n, 4);
        if (secret)
            o.schedule = leak(std::move(o.schedule));
        return o;
    });
}

/** The schedule's marginal statistics all pass. */
void
expectScheduleMarginalsPass(const CalibratedComparison &c)
{
    for (const char *stat : {"schedule.occupancy_tv", "schedule.kind_tv",
                             "schedule.count_delta"})
        EXPECT_TRUE(c.passes(stat)) << stat << ": " << c.summary();
}

TEST(Schedules, LikeDistributedSchedulesPass)
{
    const CalibratedComparison c = scheduleGate(
        600, [](std::vector<ScheduleEvent> s) { return s; });
    EXPECT_TRUE(c.pass) << c.summary();
    ASSERT_EQ(c.statistics.size(), 5u);
    EXPECT_EQ(c.statistics.front().name, "schedule.occupancy_tv");
}

TEST(Schedules, WithinShardKindSortingFails)
{
    // Reorder each shard's subsequence writes-first while keeping the
    // global position->shard assignment: marginal view and global
    // shard-order ACF are identical, so only the per-shard FIFO kind
    // statistic can catch it.
    const CalibratedComparison c =
        scheduleGate(800, [](std::vector<ScheduleEvent> a) {
            for (unsigned s = 0; s < 4; ++s) {
                std::vector<bool> kinds;
                for (const ScheduleEvent &e : a) {
                    if (e.shard == s)
                        kinds.push_back(e.write);
                }
                std::stable_partition(kinds.begin(), kinds.end(),
                                      [](bool w) { return w; });
                std::size_t k = 0;
                for (ScheduleEvent &e : a) {
                    if (e.shard == s)
                        e.write = kinds[k++];
                }
            }
            return a;
        });
    EXPECT_FALSE(c.pass) << c.summary();
    expectScheduleMarginalsPass(c);
    EXPECT_TRUE(c.passes("schedule.acf")) << c.summary();
    EXPECT_FALSE(c.passes("schedule.shard_kind_acf")) << c.summary();
}

TEST(Schedules, ShardSortedScheduleFails)
{
    // Shard-sorted completion order (long same-shard runs) against a
    // well-mixed one: identical shard occupancy, so the marginal view
    // passes -- only the ordering statistic can catch it.
    const CalibratedComparison c =
        scheduleGate(600, [](std::vector<ScheduleEvent> a) {
            std::stable_sort(
                a.begin(), a.end(),
                [](const ScheduleEvent &x, const ScheduleEvent &y) {
                    return x.shard < y.shard;
                });
            return a;
        });
    EXPECT_FALSE(c.pass) << c.summary();
    expectScheduleMarginalsPass(c);
    EXPECT_FALSE(c.passes("schedule.acf")) << c.summary();
}

/**
 * A synthetic run: uniform per-shard traces over 512 addresses and a
 * uniform schedule, drawn from @p seed; @p shift moves every trace
 * address (the region a secret selects).
 */
Observation
syntheticRun(std::uint64_t seed, Addr shift)
{
    Rng rng(seed);
    Observation o;
    o.shardTraces.resize(2);
    for (auto &t : o.shardTraces) {
        for (Tick i = 0; i < 300; ++i)
            t.push_back(TraceEvent{TraceEventKind::Read,
                                   shift + rng.nextBelow(512), 10 * i});
    }
    o.schedule = randomSchedule(rng.next(), 600, 2);
    return o;
}

TEST(CalibratedGate, SameProcessRunsPass)
{
    std::vector<std::pair<unsigned, std::uint64_t>> calls;
    const CalibratedComparison c =
        compareCalibrated([&](unsigned secret, std::uint64_t draw) {
            calls.emplace_back(secret, draw);
            return syntheticRun(1000 + draw, 0);
        });
    EXPECT_TRUE(c.pass) << c.summary();
    // Six statistics per shard, five over the schedule.
    ASSERT_EQ(c.statistics.size(), 2u * 6 + 5);
    EXPECT_EQ(c.statistics.front().name, "shard0.addr_tv");
    EXPECT_EQ(c.statistics.back().name, "schedule.shard_kind_acf");
    EXPECT_DOUBLE_EQ(c.threshold, calibratedAlpha / c.statistics.size());
    // R draws of each secret, alternating, each with its own draw.
    ASSERT_EQ(calls.size(), 2u * calibratedDraws);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i % 2);
        EXPECT_EQ(calls[i].second, i);
    }
}

TEST(CalibratedGate, RegionShiftedRunsFailAtTheFloor)
{
    const CalibratedComparison c =
        compareCalibrated([](unsigned secret, std::uint64_t draw) {
            return syntheticRun(2000 + draw, secret ? 512 : 0);
        });
    EXPECT_FALSE(c.pass) << c.summary();
    for (const CalibratedStatistic &s : c.statistics) {
        if (s.name == "shard0.addr_tv" || s.name == "shard1.addr_tv") {
            EXPECT_DOUBLE_EQ(s.pValue, c.pFloor) << s.name;
            EXPECT_GT(s.effect, 0.5) << s.name;
        }
    }
    EXPECT_FALSE(c.passes("shard0."));
    EXPECT_TRUE(c.passes("schedule."));
    EXPECT_DOUBLE_EQ(c.statistics[c.worst].pValue, c.pFloor);
}

TEST(CalibratedGate, SwappingTheSecretsKeepsTheVerdict)
{
    // Runs 2k and 2k+1 share a seed, so swapping the secrets swaps
    // which run of each pair carries which label: the same split.
    for (Addr shift : {Addr{0}, Addr{512}}) {
        auto run = [shift](unsigned secret, std::uint64_t draw) {
            return syntheticRun(3000 + 2 * (draw / 2) + secret,
                                secret ? shift : 0);
        };
        const CalibratedComparison c = compareCalibrated(run);
        const CalibratedComparison swapped = compareCalibrated(
            [&](unsigned secret, std::uint64_t draw) {
                return run(1 - secret, draw);
            });
        EXPECT_EQ(c.pass, shift == 0) << c.summary();
        EXPECT_EQ(swapped.pass, c.pass) << swapped.summary();
        ASSERT_EQ(swapped.statistics.size(), c.statistics.size());
        for (std::size_t k = 0; k < c.statistics.size(); ++k)
            EXPECT_DOUBLE_EQ(swapped.statistics[k].pValue,
                             c.statistics[k].pValue)
                << c.statistics[k].name;
    }
}

TEST(CalibratedGate, DeterministicForSeededRuns)
{
    // A run function seeded end to end yields one verdict: the
    // false-alarm budget counts such comparisons as fixed, not as
    // fresh draws on every ctest run.
    const auto run = [](unsigned secret, std::uint64_t draw) {
        return syntheticRun(5000 + draw, secret ? 8 : 0);
    };
    const CalibratedComparison a = compareCalibrated(run);
    const CalibratedComparison b = compareCalibrated(run);
    EXPECT_EQ(a.pass, b.pass);
    EXPECT_EQ(a.worst, b.worst);
    EXPECT_EQ(a.threshold, b.threshold);
    ASSERT_EQ(a.statistics.size(), b.statistics.size());
    for (std::size_t k = 0; k < a.statistics.size(); ++k) {
        EXPECT_EQ(a.statistics[k].name, b.statistics[k].name);
        EXPECT_EQ(a.statistics[k].effect, b.statistics[k].effect)
            << a.statistics[k].name;
        EXPECT_EQ(a.statistics[k].pValue, b.statistics[k].pValue)
            << a.statistics[k].name;
    }
}

TEST(CalibratedGate, FloorIsOneOverHalfTheRelabelings)
{
    const CalibratedComparison c =
        compareCalibrated([](unsigned, std::uint64_t draw) {
            return syntheticRun(4000 + draw, 0);
        });
    // 2 / C(2R, R): a relabeling and its mirror score alike.
    double choose = 1.0;
    for (unsigned k = 1; k <= calibratedDraws; ++k)
        choose = choose * (calibratedDraws + k) / k;
    EXPECT_DOUBLE_EQ(c.pFloor, 2.0 / choose);
    EXPECT_LT(c.pFloor, c.threshold);
}

} // namespace
} // namespace secdimm::verify

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/simulator.hh"

namespace secdimm::core
{
namespace
{

SimLengths
tinyLengths()
{
    SimLengths l;
    l.warmupRecords = 2000;
    l.measureRecords = 300;
    return l;
}

SystemConfig
tinyConfig(DesignPoint d)
{
    SystemConfig cfg = makeConfig(d, /*tree_levels=*/14,
                                  /*cached_levels=*/4);
    cfg.cpuGeom.rowsPerBank = 4096;
    cfg.sdimmGeom.rowsPerBank = 4096;
    return cfg;
}

SimResult
quickRun(DesignPoint d, const char *workload = "mcf",
         std::uint64_t seed = 1)
{
    return runWorkload(tinyConfig(d), *trace::findProfile(workload),
                       tinyLengths(), seed);
}

TEST(Simulator, EveryDesignRunsToCompletion)
{
    for (DesignPoint d :
         {DesignPoint::NonSecure, DesignPoint::PathOram,
          DesignPoint::Freecursive, DesignPoint::Indep2,
          DesignPoint::Split2, DesignPoint::IndepSplit}) {
        const SimResult r = quickRun(d);
        EXPECT_EQ(r.core.l1Misses, 300u) << designName(d);
        EXPECT_GT(r.core.cycles, 0u) << designName(d);
        EXPECT_GT(r.energy.totalNj(), 0.0) << designName(d);
    }
}

TEST(Simulator, DeterministicForSeed)
{
    const SimResult a = quickRun(DesignPoint::Indep2, "milc", 9);
    const SimResult b = quickRun(DesignPoint::Indep2, "milc", 9);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.offDimmLines, b.offDimmLines);
    EXPECT_DOUBLE_EQ(a.energy.totalNj(), b.energy.totalNj());
}

/** The timing-model figures the pinned runs below compare. */
struct PinnedCounters
{
    const char *label;
    std::uint64_t cycles;
    std::uint64_t accessOrams;
    std::uint64_t offDimmLines;
    std::uint64_t probes;
    double energyNj;
    std::uint64_t recoveryCycles;
    double oramsPerMiss;
    /** FNV-1a of metrics.toJson(): every counter, gauge and histogram
     *  the report fills, so a dropped or renamed metric shows. */
    std::uint64_t metricsDigest;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

SimResult
pinnedRun(const SystemConfig &cfg)
{
    SimLengths l;
    l.warmupRecords = 50;
    l.measureRecords = 80;
    return runWorkload(cfg, *trace::findProfile("mcf"), l, 1);
}

void
expectPinned(const SimResult &r, const PinnedCounters &want)
{
    EXPECT_EQ(r.metrics.counter("core.cycles"), want.cycles) << want.label;
    EXPECT_EQ(r.metrics.counter("core.access_orams"), want.accessOrams)
        << want.label;
    EXPECT_EQ(r.metrics.counter("core.off_dimm_lines"), want.offDimmLines)
        << want.label;
    EXPECT_EQ(r.metrics.counter("core.probes"), want.probes) << want.label;
    EXPECT_EQ(r.metrics.gauge("core.energy.total_nj"), want.energyNj)
        << want.label;
    EXPECT_EQ(r.recoveryCycles, want.recoveryCycles) << want.label;
    EXPECT_EQ(r.avgOramsPerMiss, want.oramsPerMiss) << want.label;
    EXPECT_EQ(fnv1a(r.metrics.toJson()), want.metricsDigest) << want.label;
}

TEST(Simulator, TimingModelPinned)
{
    // Exact simulated counters, energy and a digest of the whole
    // metrics report for fixed seeds.  A refactor of the timing layer
    // must leave every figure bit-identical; a change here is a change
    // to the model and to EXPERIMENTS.md.
    const PinnedCounters designs[] = {
        {"NonSecure", 12918, 0, 80, 0, 86878.906875000015, 0, 0.0,
         0x63de3c3379a9186eULL},
        {"PathORAM", 30703, 80, 8800, 0, 406966.41562500002, 0, 1.0,
         0x82b667c729d6b850ULL},
        {"Freecursive", 115707, 334, 36740, 0, 1746672.0975000001, 0, 4.175,
         0x4a3e643d61284258ULL},
        {"INDEP-2", 97226, 375, 1816, 8762, 1061855.6685000001, 0, 4.175,
         0x8bc07031c285b9c3ULL},
        {"SPLIT-2", 94648, 334, 5386, 0, 1275086.7862500001, 0, 4.175,
         0x068d09b944e96527ULL},
        {"INDEP-4", 72294, 377, 2745, 5585, 1243168.4262500005, 0, 4.175,
         0xe7acf7d20f10bf70ULL},
        {"SPLIT-4", 67603, 334, 5386, 0, 1719590.0154999997, 0, 4.175,
         0xf2c983c478f02570ULL},
        {"INDEP-SPLIT", 59784, 375, 6715, 0, 1357159.05, 0, 4.175,
         0xf0b9ea8b5df92066ULL},
    };
    const DesignPoint points[] = {
        DesignPoint::NonSecure, DesignPoint::PathOram,
        DesignPoint::Freecursive, DesignPoint::Indep2,
        DesignPoint::Split2,    DesignPoint::Indep4,
        DesignPoint::Split4,    DesignPoint::IndepSplit,
    };
    for (std::size_t i = 0; i < std::size(points); ++i) {
        EXPECT_STREQ(designName(points[i]), designs[i].label);
        expectPinned(pinnedRun(tinyConfig(points[i])), designs[i]);
    }

    // The full-power layouts of the SDIMM engines.
    SystemConfig indep_full = tinyConfig(DesignPoint::Indep2);
    indep_full.lowPower = false;
    expectPinned(pinnedRun(indep_full),
                 {"INDEP-2 lowPower=0", 103275, 377, 1816, 9062,
                  1275052.3235000002, 0, 4.175, 0x4b8973234ee5ad5eULL});
    SystemConfig split_full = tinyConfig(DesignPoint::Split2);
    split_full.lowPower = false;
    expectPinned(pinnedRun(split_full),
                 {"SPLIT-2 lowPower=0", 95121, 334, 5386, 0, 1320298.48875, 0,
                  4.175, 0x87c341ab3bd20335ULL});

    SystemConfig dying = tinyConfig(DesignPoint::Indep2);
    dying.faultPlan = fault::FaultPlan::hardDeath(1, 50, 7);
    const SimResult died = pinnedRun(dying);
    EXPECT_EQ(died.metrics.counter("fault.quarantined_sdimms"), 1u);
    expectPinned(died, {"INDEP-2 hardDeath", 273321, 368, 24600, 16453,
                  2339942.1875, 139264, 4.175, 0x0a65547c7dd24ad3ULL});
}

TEST(Simulator, OramMuchSlowerThanNonSecure)
{
    // Figure 6 essence: Freecursive is several-fold slower.
    const SimResult plain = quickRun(DesignPoint::NonSecure);
    const SimResult oram = quickRun(DesignPoint::Freecursive);
    EXPECT_GT(oram.core.cycles, 3 * plain.core.cycles);
}

TEST(Simulator, PathOramBaselineOrdersCorrectly)
{
    // Figure 8 baseline set: plain Path ORAM pays the whole-path cost
    // on EVERY miss (no PLB shortcuts), so it is clearly slower than
    // nothing at all (the tiny 14-level tree softens the ratio, hence
    // 1.5x rather than the paper's larger gap); Freecursive never does
    // better than one accessORAM per miss, so Path ORAM -- at exactly
    // one -- bounds it from below on the per-miss recursion average.
    const SimResult plain = quickRun(DesignPoint::NonSecure);
    const SimResult path = quickRun(DesignPoint::PathOram);
    const SimResult fc = quickRun(DesignPoint::Freecursive);
    EXPECT_GT(2 * path.core.cycles, 3 * plain.core.cycles);
    EXPECT_DOUBLE_EQ(path.avgOramsPerMiss, 1.0);
    EXPECT_GE(fc.avgOramsPerMiss, path.avgOramsPerMiss);
}

TEST(Simulator, TimingLayerAccountsPermanentFaultRecovery)
{
    // An SDIMM dying mid-run costs real simulated time: watchdog
    // backoff waits plus the bulk evacuation transfer, all surfaced
    // through SimResult.recoveryCycles and the fault.* metrics.
    SystemConfig faulty = tinyConfig(DesignPoint::Indep2);
    faulty.faultPlan = fault::FaultPlan::hardDeath(1, 50, 7);
    const SimResult hurt = runWorkload(
        faulty, *trace::findProfile("mcf"), tinyLengths(), 1);
    const SimResult clean = quickRun(DesignPoint::Indep2);

    EXPECT_GT(hurt.recoveryCycles, 0u);
    EXPECT_EQ(hurt.metrics.counter("core.recovery_cycles"),
              hurt.recoveryCycles);
    EXPECT_EQ(hurt.metrics.counter("fault.quarantined_sdimms"), 1u);
    EXPECT_GT(hurt.metrics.counter("fault.watchdog_probes"), 0u);
    EXPECT_GT(hurt.metrics.counter("fault.evacuation_appends"), 0u);
    EXPECT_GT(hurt.core.cycles, clean.core.cycles);
    EXPECT_EQ(clean.recoveryCycles, 0u);
    for (const auto &n : clean.metrics.names())
        EXPECT_NE(n, "fault.watchdog_probes");
}

TEST(Simulator, DegradedLatencyUnitSlowsTheRunDown)
{
    SystemConfig slow = tinyConfig(DesignPoint::Indep2);
    slow.faultPlan = fault::FaultPlan::degradedLatency(0, 2000, 7);
    const SimResult hurt = runWorkload(
        slow, *trace::findProfile("mcf"), tinyLengths(), 1);
    const SimResult clean = quickRun(DesignPoint::Indep2);
    EXPECT_GT(hurt.metrics.counter("fault.degraded_latency_cycles"), 0u);
    EXPECT_GT(hurt.core.cycles, clean.core.cycles);
    // Slow is not dead: nothing is detected, quarantined, or lost.
    EXPECT_EQ(hurt.metrics.counter("fault.detected.total"), 0u);
    EXPECT_EQ(hurt.metrics.counter("fault.quarantined_sdimms"), 0u);
}

TEST(Simulator, SdimmDesignsBeatFreecursive)
{
    // Figures 8/9 essence: both SDIMM protocols outperform the
    // baseline on a memory-intensive workload.
    const SimResult fc = quickRun(DesignPoint::Freecursive);
    const SimResult ind = quickRun(DesignPoint::Indep2);
    const SimResult split = quickRun(DesignPoint::Split2);
    EXPECT_LT(ind.core.cycles, fc.core.cycles);
    EXPECT_LT(split.core.cycles, fc.core.cycles);
}

TEST(Simulator, SdimmSlashesOffDimmTraffic)
{
    const SimResult fc = quickRun(DesignPoint::Freecursive);
    const SimResult ind = quickRun(DesignPoint::Indep2);
    EXPECT_LT(ind.offDimmLines, fc.offDimmLines / 5);
}

TEST(Simulator, RecursionAverageInPaperRange)
{
    // Paper reports ~1.4 accessORAMs per miss on its (fairly local)
    // workloads; our streaming profile should land near that, and
    // even the pointer-chasing profile must stay well below the
    // no-PLB cost of n+1 = 6.
    const SimResult seq = quickRun(DesignPoint::Freecursive,
                                   "libquantum");
    EXPECT_GE(seq.avgOramsPerMiss, 1.0);
    EXPECT_LE(seq.avgOramsPerMiss, 2.5);
    const SimResult rnd = quickRun(DesignPoint::Freecursive, "mcf");
    EXPECT_LT(rnd.avgOramsPerMiss, 6.0);
    EXPECT_GT(rnd.avgOramsPerMiss, seq.avgOramsPerMiss);
}

TEST(Simulator, EnergyBreakdownPopulated)
{
    const SimResult r = quickRun(DesignPoint::Indep2);
    EXPECT_GT(r.energy.actPreNj, 0.0);
    EXPECT_GT(r.energy.rdWrNj, 0.0);
    EXPECT_GT(r.energy.ioNj, 0.0);
    EXPECT_GT(r.energy.backgroundNj, 0.0);
}

TEST(Simulator, ProbesOnlyInSdimmDesigns)
{
    EXPECT_EQ(quickRun(DesignPoint::Freecursive).probes, 0u);
    EXPECT_GT(quickRun(DesignPoint::Indep2).probes, 0u);
}

TEST(Simulator, BenchLengthsEnvOverride)
{
    ::setenv("SDIMM_BENCH_ACCESSES", "123", 1);
    ::setenv("SDIMM_BENCH_WARMUP", "456", 1);
    const SimLengths l = benchLengths();
    EXPECT_EQ(l.measureRecords, 123u);
    EXPECT_EQ(l.warmupRecords, 456u);
    ::unsetenv("SDIMM_BENCH_ACCESSES");
    ::unsetenv("SDIMM_BENCH_WARMUP");
    const SimLengths d = benchLengths(11, 22);
    EXPECT_EQ(d.measureRecords, 11u);
    EXPECT_EQ(d.warmupRecords, 22u);
}

} // namespace
} // namespace secdimm::core

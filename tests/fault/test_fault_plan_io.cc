/**
 * @file
 * FaultPlan JSON round-trip tests (the chaos campaign schema of
 * docs/FAULTS.md) plus the watchdog backoff saturation guarantee:
 * the exponential probe schedule must clamp at the cap even when the
 * multiplication would wrap 64 bits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "fault/fault_plan.hh"
#include "fault/fault_plan_io.hh"

namespace secdimm::fault
{
namespace
{

FaultPlan
richPlan()
{
    FaultPlan p = FaultPlan::uniform(0.015, 42);
    p.maxRetries = 7;
    p.stallCycles = 300;
    p.watchdogDeadlineCycles = 256;
    p.watchdogBackoffBase = 3;
    p.watchdogBackoffCapCycles = 1 << 20;
    p.watchdogMaxProbes = 5;
    p.retireEwmaAlpha = 0.5;
    p.retireTaxThresholdCycles = 900;
    p.retireHysteresisAccesses = 12;

    PermanentFault dead;
    dead.kind = PermanentFaultKind::HardDeath;
    dead.unit = 2;
    dead.atAccess = 100;
    p.permanentFaults.push_back(dead);

    PermanentFault limp;
    limp.kind = PermanentFaultKind::DegradedLatency;
    limp.unit = 1;
    limp.latencyCycles = 1500;
    p.permanentFaults.push_back(limp);

    CorrelatedFailure burst;
    burst.units = {1, 2, 3};
    burst.kind = PermanentFaultKind::HardDeath;
    burst.atAccess = 64;
    burst.cascadeGapAccesses = 4;
    p.correlatedFailures.push_back(burst);
    return p;
}

TEST(FaultPlanIo, RoundTripPreservesEveryField)
{
    const FaultPlan p = richPlan();
    const std::string json = faultPlanToJson(p);
    std::string err;
    const auto back = faultPlanFromJson(json, &err);
    ASSERT_TRUE(back.has_value()) << err;

    EXPECT_DOUBLE_EQ(back->dramBitFlipRate, p.dramBitFlipRate);
    EXPECT_DOUBLE_EQ(back->linkCorruptRate, p.linkCorruptRate);
    EXPECT_DOUBLE_EQ(back->linkDropRate, p.linkDropRate);
    EXPECT_DOUBLE_EQ(back->linkDelayRate, p.linkDelayRate);
    EXPECT_DOUBLE_EQ(back->executorStallRate, p.executorStallRate);
    EXPECT_DOUBLE_EQ(back->queuePerturbRate, p.queuePerturbRate);
    EXPECT_EQ(back->maxRetries, p.maxRetries);
    EXPECT_EQ(back->stallCycles, p.stallCycles);
    EXPECT_EQ(back->seed, p.seed);
    EXPECT_EQ(back->watchdogDeadlineCycles, p.watchdogDeadlineCycles);
    EXPECT_EQ(back->watchdogBackoffBase, p.watchdogBackoffBase);
    EXPECT_EQ(back->watchdogBackoffCapCycles,
              p.watchdogBackoffCapCycles);
    EXPECT_EQ(back->watchdogMaxProbes, p.watchdogMaxProbes);
    EXPECT_DOUBLE_EQ(back->retireEwmaAlpha, p.retireEwmaAlpha);
    EXPECT_EQ(back->retireTaxThresholdCycles,
              p.retireTaxThresholdCycles);
    EXPECT_EQ(back->retireHysteresisAccesses,
              p.retireHysteresisAccesses);

    ASSERT_EQ(back->permanentFaults.size(), 2u);
    EXPECT_EQ(back->permanentFaults[0].kind,
              PermanentFaultKind::HardDeath);
    EXPECT_EQ(back->permanentFaults[0].unit, 2u);
    EXPECT_EQ(back->permanentFaults[0].atAccess, 100u);
    EXPECT_EQ(back->permanentFaults[1].kind,
              PermanentFaultKind::DegradedLatency);
    EXPECT_EQ(back->permanentFaults[1].latencyCycles, 1500u);

    ASSERT_EQ(back->correlatedFailures.size(), 1u);
    EXPECT_EQ(back->correlatedFailures[0].units,
              (std::vector<unsigned>{1, 2, 3}));
    EXPECT_EQ(back->correlatedFailures[0].atAccess, 64u);
    EXPECT_EQ(back->correlatedFailures[0].cascadeGapAccesses, 4u);

    // Serializing the parsed plan again is a fixed point.
    EXPECT_EQ(faultPlanToJson(*back), json);

    // Seeds past double's 53-bit mantissa survive exactly.
    for (const std::uint64_t seed :
         {(std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
        FaultPlan big = p;
        big.seed = seed;
        const std::string big_json = faultPlanToJson(big);
        const auto big_back = faultPlanFromJson(big_json, &err);
        ASSERT_TRUE(big_back.has_value()) << err;
        EXPECT_EQ(big_back->seed, seed);
        EXPECT_EQ(faultPlanToJson(*big_back), big_json);
    }
}

TEST(FaultPlanIo, EmptyPlanRoundTrips)
{
    std::string err;
    const auto back =
        faultPlanFromJson(faultPlanToJson(FaultPlan::none()), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_FALSE(back->enabled());
}

TEST(FaultPlanIo, RejectsUnknownKeys)
{
    std::string err;
    EXPECT_FALSE(
        faultPlanFromJson("{\"dram_bit_flip_rate\": 0.1, "
                          "\"not_a_knob\": 7}",
                          &err)
            .has_value());
    EXPECT_NE(err.find("not_a_knob"), std::string::npos);
}

TEST(FaultPlanIo, RejectsMalformedValues)
{
    // Negative counters, bad kinds, and empty correlated groups are
    // configuration errors, not campaigns.
    EXPECT_FALSE(faultPlanFromJson("{\"max_retries\": -1}").has_value());
    EXPECT_FALSE(faultPlanFromJson("{\"seed\": 1.5}").has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"permanent_faults\": [{\"kind\": "
                          "\"eldritch\", \"unit\": 0}]}")
            .has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"correlated_failures\": [{\"units\": [], "
                          "\"at_access\": 4}]}")
            .has_value());
    EXPECT_FALSE(faultPlanFromJson("not json at all").has_value());
    // Out-of-range integers: past uint64, past a 32-bit field, or
    // fractional in exponent form.
    for (const char *bad :
         {"{\"seed\": 18446744073709551616}", "{\"seed\": -0.5}",
          "{\"max_retries\": 4294967296}", "{\"stall_cycles\": 2.5e0}",
          "{\"permanent_faults\": [{\"kind\": \"stuck_at\", "
          "\"unit\": 4294967296}]}",
          "{\"correlated_failures\": [{\"units\": [1, -2]}]}",
          "{\"dram_bit_flip_rate\": 1e999}", "{\"seed\": 1, \"seed\": 2}"})
        EXPECT_FALSE(faultPlanFromJson(bad).has_value()) << bad;
}

TEST(FaultPlanIo, ParsedCorrelatedPlanIsEnabled)
{
    std::string err;
    const auto p = faultPlanFromJson(
        "{\"correlated_failures\": [{\"units\": [1, 2], "
        "\"at_access\": 10, \"cascade_gap_accesses\": 0}]}",
        &err);
    ASSERT_TRUE(p.has_value()) << err;
    EXPECT_TRUE(p->enabled());
    ASSERT_EQ(p->correlatedFailures.size(), 1u);
    EXPECT_EQ(p->correlatedFailures[0].kind,
              PermanentFaultKind::HardDeath);
}

/* ------------------------------------------------------------------ */
/* Byzantine schema                                                    */
/* ------------------------------------------------------------------ */

TEST(FaultPlanIo, ByzantinePlanRoundTripIsFixedPoint)
{
    FaultPlan p = FaultPlan::byzantineLiar(2, 0.25, 64, 11);
    p.byzantineFaults.push_back(
        {ByzantineFaultKind::LostWrite, 3, 0.5, 128});
    p.byzantineFaults.push_back(
        {ByzantineFaultKind::Equivocate, 1, 1.0, 0});
    p.mistrustEwmaAlpha = 0.5;
    p.mistrustHysteresisAccesses = 9;
    p.mistrustMinEvidence = 3;

    const std::string json = faultPlanToJson(p);
    std::string err;
    const auto back = faultPlanFromJson(json, &err);
    ASSERT_TRUE(back.has_value()) << err;

    ASSERT_EQ(back->byzantineFaults.size(), 3u);
    EXPECT_EQ(back->byzantineFaults[0].kind,
              ByzantineFaultKind::DutyCycleLiar);
    EXPECT_EQ(back->byzantineFaults[0].unit, 2u);
    EXPECT_DOUBLE_EQ(back->byzantineFaults[0].dutyCycle, 0.25);
    EXPECT_EQ(back->byzantineFaults[0].fromAccess, 64u);
    EXPECT_EQ(back->byzantineFaults[1].kind,
              ByzantineFaultKind::LostWrite);
    EXPECT_EQ(back->byzantineFaults[2].kind,
              ByzantineFaultKind::Equivocate);
    EXPECT_DOUBLE_EQ(back->mistrustEwmaAlpha, 0.5);
    EXPECT_DOUBLE_EQ(back->mistrustConvictThreshold, 0.12);
    EXPECT_EQ(back->mistrustHysteresisAccesses, 9u);
    EXPECT_EQ(back->mistrustMinEvidence, 3u);
    EXPECT_TRUE(back->enabled());

    // Serializing the parsed plan again is a fixed point.
    EXPECT_EQ(faultPlanToJson(*back), json);

    // Seeds past double's 53-bit mantissa survive exactly.
    for (const std::uint64_t seed :
         {(std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
        FaultPlan big = p;
        big.seed = seed;
        const std::string big_json = faultPlanToJson(big);
        const auto big_back = faultPlanFromJson(big_json, &err);
        ASSERT_TRUE(big_back.has_value()) << err;
        EXPECT_EQ(big_back->seed, seed);
        EXPECT_EQ(faultPlanToJson(*big_back), big_json);
    }
}

TEST(FaultPlanIo, ByzantineSchemaRejectsBadEntries)
{
    // Unknown archetypes, unknown keys inside an entry, and
    // out-of-range duty cycles are configuration errors.
    EXPECT_FALSE(
        faultPlanFromJson("{\"byzantine_faults\": [{\"kind\": "
                          "\"gaslighter\", \"unit\": 0}]}")
            .has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"byzantine_faults\": [{\"kind\": "
                          "\"duty_cycle_liar\", \"unit\": 0, "
                          "\"volume\": 11}]}")
            .has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"byzantine_faults\": [{\"kind\": "
                          "\"duty_cycle_liar\", \"unit\": 0, "
                          "\"duty_cycle\": 1.5}]}")
            .has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"byzantine_faults\": [{\"kind\": "
                          "\"duty_cycle_liar\", \"unit\": 0, "
                          "\"duty_cycle\": -0.1}]}")
            .has_value());
    EXPECT_FALSE(
        faultPlanFromJson("{\"mistrust_convict_threshold\": \"high\"}")
            .has_value());
}

TEST(FaultPlanIo, ArmedScorerAlonePlanIsEnabled)
{
    // A plan with no scripted faults but the mistrust scorer armed
    // must still count as enabled: the byzantine-defense build runs
    // the detector even when nobody is lying (the false-conviction
    // soak depends on this).
    std::string err;
    const auto p =
        faultPlanFromJson("{\"mistrust_convict_threshold\": 0.12}", &err);
    ASSERT_TRUE(p.has_value()) << err;
    EXPECT_TRUE(p->enabled());
    EXPECT_TRUE(p->byzantineFaults.empty());
}

/* ------------------------------------------------------------------ */
/* Watchdog backoff saturation                                         */
/* ------------------------------------------------------------------ */

TEST(WatchdogBackoff, SaturatesAtCapInsteadOfWrapping)
{
    FaultPlan p;
    p.watchdogDeadlineCycles = std::uint64_t{1} << 62;
    p.watchdogBackoffBase = 4;
    p.watchdogBackoffCapCycles =
        std::numeric_limits<std::uint64_t>::max();

    // 2^62 * 4 wraps 64 bits; the schedule must clamp at the cap,
    // never cycle back to a small wait.
    std::uint64_t prev = 0;
    for (unsigned probe = 0; probe < 80; ++probe) {
        const std::uint64_t wait = p.watchdogBackoff(probe);
        EXPECT_GE(wait, prev) << "backoff regressed at probe " << probe;
        EXPECT_GE(wait, p.watchdogDeadlineCycles);
        EXPECT_LE(wait, p.watchdogBackoffCapCycles);
        prev = wait;
    }
    EXPECT_EQ(p.watchdogBackoff(79), p.watchdogBackoffCapCycles);
}

TEST(WatchdogBackoff, ExactGeometricScheduleBelowCap)
{
    FaultPlan p;
    p.watchdogDeadlineCycles = 100;
    p.watchdogBackoffBase = 2;
    p.watchdogBackoffCapCycles = 1000;
    EXPECT_EQ(p.watchdogBackoff(0), 100u);
    EXPECT_EQ(p.watchdogBackoff(1), 200u);
    EXPECT_EQ(p.watchdogBackoff(2), 400u);
    EXPECT_EQ(p.watchdogBackoff(3), 800u);
    EXPECT_EQ(p.watchdogBackoff(4), 1000u); // Clamped.
    EXPECT_EQ(p.watchdogBackoff(60), 1000u);
}

} // namespace
} // namespace secdimm::fault

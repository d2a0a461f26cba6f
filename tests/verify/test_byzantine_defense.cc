/**
 * @file
 * Byzantine-defense acceptance (docs/FAULTS.md "Byzantine units"):
 * wrong-but-authenticated units -- persistent corruptors, duty-cycle
 * liars, lost-write ACKers, group equivocators -- must be detected,
 * attributed through the mistrust score, convicted, and obliviously
 * evicted, without losing recoverable data, breaking the ledger
 * identity, or convicting anyone honest.
 *
 * Everything is seeded and deterministic.  The conviction policy has
 * three stacked guards (EWMA threshold, consecutive-access
 * hysteresis, lifetime-evidence floor); the restraint tests pin each
 * one separately so a regression names the guard it broke.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/secure_memory_system.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "serve/sharded_memory.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"

namespace secdimm::verify
{
namespace
{

BlockData
valueBlock(std::uint64_t b)
{
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<std::uint8_t>(
            (b * 0x9e3779b97f4a7c15ull + i * 131) & 0xff);
    return d;
}

sdimm::IndependentOram::Params
indepParams(unsigned units)
{
    sdimm::IndependentOram::Params p;
    p.perSdimm.levels = 6;
    p.perSdimm.stashCapacity = 200;
    p.numSdimms = units;
    return p;
}

sdimm::IndepSplitOram::Params
groupParams(unsigned groups)
{
    sdimm::IndepSplitOram::Params p;
    p.perGroupTree.levels = 6;
    p.perGroupTree.stashCapacity = 200;
    p.groups = groups;
    p.slicesPerGroup = 2;
    return p;
}

template <typename Oram>
void
writeRange(Oram &o, std::uint64_t n)
{
    for (std::uint64_t b = 0; b < n; ++b) {
        const BlockData d = valueBlock(b);
        o.access(b, oram::OramOp::Write, &d);
    }
}

template <typename Oram>
void
readPasses(Oram &o, std::uint64_t n, unsigned passes)
{
    for (unsigned p = 0; p < passes; ++p)
        for (std::uint64_t b = 0; b < n; ++b)
            o.access(b, oram::OramOp::Read, nullptr);
}

template <typename Oram>
std::uint64_t
countCorrupt(Oram &o, std::uint64_t n)
{
    std::uint64_t bad = 0;
    for (std::uint64_t b = 0; b < n; ++b) {
        if (o.access(b, oram::OramOp::Read, nullptr) != valueBlock(b))
            ++bad;
    }
    return bad;
}

void
expectLedgerIdentity(const fault::FaultInjector &inj)
{
    EXPECT_EQ(inj.detectedTotal(),
              inj.recoveredTotal() + inj.unrecoveredTotal())
        << "ledger identity broken: detected="
        << inj.detectedTotal() << " recovered=" << inj.recoveredTotal()
        << " unrecovered=" << inj.unrecoveredTotal();
}

/* ------------------------------------------------------------------ */
/* Conviction: the liar archetypes                                     */
/* ------------------------------------------------------------------ */

TEST(ByzantineDefense, PersistentCorruptorConvictedAndEvacuated)
{
    // Unit 1 garbles every FETCH_RESULT once armed: the first touch
    // exhausts the retry budget, preemption-conviction fires, and the
    // honest latch contents recover the in-flight block.  Everything
    // survives bit-exact.
    fault::FaultInjector inj(fault::FaultPlan::byzantineCorruptor(1, 16, 7));
    sdimm::IndependentOram o(indepParams(4), 21);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 128;
    writeRange(o, n);
    readPasses(o, n, 2);

    EXPECT_EQ(inj.convictedUnits(), 1u);
    EXPECT_EQ(o.convictedUnits(), 1u);
    EXPECT_TRUE(o.isQuarantined(1));
    EXPECT_TRUE(inj.unitConvicted(1));
    EXPECT_FALSE(o.failedStop());
    EXPECT_EQ(countCorrupt(o, n), 0u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_GT(inj.detected(fault::FaultKind::ByzantineCorrupt), 0u);
    EXPECT_EQ(inj.detected(fault::FaultKind::ByzantineConvict), 1u);
    expectLedgerIdentity(inj);
}

TEST(ByzantineDefense, DutyCycleLiarCrossesMistrustThreshold)
{
    // A 25%-duty liar recovers through retries (no single access
    // exhausts the budget), so conviction must come from the mistrust
    // EWMA accumulating across accesses.
    fault::FaultInjector inj(fault::FaultPlan::byzantineLiar(1, 0.25, 16, 3));
    sdimm::IndependentOram o(indepParams(4), 22);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 128;
    writeRange(o, n);
    readPasses(o, n, 6);

    EXPECT_EQ(inj.convictedUnits(), 1u);
    EXPECT_TRUE(o.isQuarantined(1));
    EXPECT_FALSE(o.failedStop());
    EXPECT_EQ(countCorrupt(o, n), 0u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    expectLedgerIdentity(inj);
}

TEST(ByzantineDefense, LostWritesDetectedAtReadBackAndAttributed)
{
    // Unit 1 ACKs real APPENDs and drops half the payloads.  The
    // dropped data is gone -- but every drop must be discovered at
    // read-back, booked detected+unrecovered against the recorded
    // culprit (exactly once), and the culprit convicted.
    fault::FaultInjector inj(fault::FaultPlan::byzantine(
        fault::ByzantineFaultKind::LostWrite, 1, 0.5, 16, 0.12, 5));
    sdimm::IndependentOram o(indepParams(4), 23);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 128;
    writeRange(o, n);
    readPasses(o, n, 3);

    const std::uint64_t lost =
        inj.detected(fault::FaultKind::ByzantineLostWrite);
    EXPECT_GT(lost, 0u);
    // Exactly-once accounting: every drop is one detected and one
    // unrecovered entry, and nothing else went unrecovered.
    EXPECT_EQ(inj.unrecoveredTotal(), lost);
    EXPECT_EQ(inj.convictedUnits(), 1u);
    EXPECT_TRUE(o.isQuarantined(1));
    EXPECT_FALSE(o.failedStop());
    // The loss is bounded by what was attributed: a block is corrupt
    // only if its write was dropped.
    EXPECT_LE(countCorrupt(o, n), lost);
    expectLedgerIdentity(inj);
}

TEST(ByzantineDefense, EquivocatingGroupConvicted)
{
    // INDEP-SPLIT: group 1 serves stale-consistent slices on every
    // touch.  The group is convicted as a unit and its blocks
    // evacuated to the surviving groups.
    fault::FaultInjector inj(fault::FaultPlan::byzantine(
        fault::ByzantineFaultKind::Equivocate, 1, 1.0, 16, 0.12, 9));
    sdimm::IndepSplitOram o(groupParams(4), 24);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 128;
    writeRange(o, n);
    readPasses(o, n, 2);

    EXPECT_EQ(inj.convictedUnits(), 1u);
    EXPECT_EQ(o.convictedUnits(), 1u);
    EXPECT_TRUE(o.isQuarantined(1));
    EXPECT_FALSE(o.failedStop());
    EXPECT_EQ(countCorrupt(o, n), 0u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_GT(inj.detected(fault::FaultKind::ByzantineEquivocate), 0u);
    expectLedgerIdentity(inj);
}

/* ------------------------------------------------------------------ */
/* Restraint: nobody honest gets convicted                             */
/* ------------------------------------------------------------------ */

TEST(ByzantineDefense, EvidenceFloorBlocksClusteredTransients)
{
    // Mechanism test of the third guard: a couple of unluckily
    // ADJACENT failures spike the EWMA over the threshold and could
    // outlast the hysteresis, but they cannot fake a body of
    // evidence.  Conviction must wait for mistrustMinEvidence
    // lifetime failures.
    fault::FaultPlan plan;
    plan.mistrustConvictThreshold = 0.12;
    plan.mistrustHysteresisAccesses = 2;
    plan.mistrustMinEvidence = 6;
    fault::FaultInjector inj(plan);

    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(inj.convictionDue(0))
            << "only " << i << " failures: below the evidence floor";
        inj.noteMistrust(0, 1.0);
    }
    // The hysteresis streak starts counting only once the floor is
    // met: one more over-threshold access completes streak 2.
    EXPECT_FALSE(inj.convictionDue(0)) << "floor met, streak 1 of 2";
    inj.noteMistrust(0, 1.0);
    EXPECT_TRUE(inj.convictionDue(0)) << "floor met, streak held";
}

TEST(ByzantineDefense, TransientNoiseNeverConvicts)
{
    // Honest-but-noisy wire: uniform transients with the scorer
    // armed.  Failures recover through retries, the EWMA decays
    // between them, and nobody reaches the conviction bar.
    fault::FaultPlan plan = fault::FaultPlan::uniform(0.005, 13);
    plan.mistrustConvictThreshold = 0.12;
    fault::FaultInjector inj(plan);
    sdimm::IndependentOram o(indepParams(4), 25);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 128;
    writeRange(o, n);
    readPasses(o, n, 4);

    EXPECT_EQ(inj.convictedUnits(), 0u);
    EXPECT_EQ(o.quarantinedCount(), 0u);
    EXPECT_FALSE(o.failedStop());
    EXPECT_EQ(countCorrupt(o, n), 0u);
    expectLedgerIdentity(inj);
}

TEST(ByzantineDefense, FaultFreeArmedRunShowsZeroConvictions)
{
    // The false-conviction soak of ISSUE 9: >= 10k accesses under the
    // byzantine-enabled build with nobody lying must see zero
    // detections and zero convictions on both unit designs.
    fault::FaultPlan armed;
    armed.mistrustConvictThreshold = 0.12;
    {
        fault::FaultInjector inj(armed);
        sdimm::IndependentOram o(indepParams(4), 26);
        o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
        const std::uint64_t n = 128;
        writeRange(o, n);
        Rng rng(77);
        for (std::uint64_t i = 0; i < 10000; ++i)
            o.access(rng.nextBelow(n), oram::OramOp::Read, nullptr);
        EXPECT_EQ(inj.convictedUnits(), 0u);
        EXPECT_EQ(inj.detectedTotal(), 0u);
        EXPECT_EQ(countCorrupt(o, n), 0u);
    }
    {
        fault::FaultInjector inj(armed);
        sdimm::IndepSplitOram o(groupParams(4), 27);
        o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
        const std::uint64_t n = 128;
        writeRange(o, n);
        Rng rng(78);
        for (std::uint64_t i = 0; i < 10000; ++i)
            o.access(rng.nextBelow(n), oram::OramOp::Read, nullptr);
        EXPECT_EQ(inj.convictedUnits(), 0u);
        EXPECT_EQ(inj.detectedTotal(), 0u);
        EXPECT_EQ(countCorrupt(o, n), 0u);
    }
}

/* ------------------------------------------------------------------ */
/* The last survivor                                                   */
/* ------------------------------------------------------------------ */

TEST(ByzantineDefense, ConvictingLastSurvivorFailsStopInstead)
{
    // Two units, one already quarantined, the survivor lying: there
    // is nowhere to evacuate to.  The defense must fail-stop with the
    // zero-survivor ledger entry rather than convict the service into
    // nothing (or keep trusting the liar).
    fault::FaultInjector inj(
        fault::FaultPlan::byzantineLiar(1, 0.25, 0, 31));
    sdimm::IndependentOram o(indepParams(2), 28);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 32;
    writeRange(o, n);
    o.quarantine(0); // Evacuates unit 0's blocks onto the liar.

    for (std::uint64_t i = 0; i < 256 && !o.failedStop(); ++i)
        o.access(i % n, oram::OramOp::Read, nullptr);

    EXPECT_TRUE(o.failedStop());
    EXPECT_EQ(inj.convictedUnits(), 1u);
    EXPECT_EQ(inj.zeroSurvivorFailStops(), 1u);
    EXPECT_GT(inj.unrecoveredTotal(), 0u);
    expectLedgerIdentity(inj);
}

/* ------------------------------------------------------------------ */
/* Post-conviction obliviousness                                       */
/* ------------------------------------------------------------------ */

TEST(ByzantineDefense, PostConvictionTracesDeepCompare)
{
    // Runs whose SECRET is the address stream (seed 101 or 202) under
    // a public byzantine plan: traces spanning detection, conviction,
    // and the eviction storm go through the calibrated gate
    // (marginals, lag-k ACF, gap profiles), each run with its own
    // engine and plan seed.
    const auto run = [](unsigned secret, std::uint64_t draw) {
        const std::uint64_t seed = 17 + draw;
        fault::FaultInjector inj(
            fault::FaultPlan::byzantineCorruptor(1, 300, seed));
        sdimm::IndependentOram o(indepParams(4), seed);
        o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
        ChannelObserver obs;
        obs.attach(o);
        Rng rng(secret ? 202 : 101);
        for (std::size_t i = 0; i < 1200; ++i)
            o.access(rng.nextBelow(o.capacityBlocks()),
                     oram::OramOp::Read, nullptr);
        EXPECT_TRUE(inj.unitConvicted(1));
        Observation out;
        out.shardTraces.push_back(obs.events());
        for (std::size_t i = 0; i < out.shardTraces[0].size(); ++i)
            out.shardTraces[0][i].at = 10 * i;
        return out;
    };
    const CalibratedComparison cmp = compareCalibrated(run);
    EXPECT_TRUE(cmp.pass) << cmp.summary();
}

/* ------------------------------------------------------------------ */
/* Serve frontend                                                      */
/* ------------------------------------------------------------------ */

TEST(ByzantineDefense, ShardedFrontendSurfacesByzantineHealth)
{
    // One shard runs a persistent corruptor: after traffic, that
    // shard must be Degraded (convicted unit quarantined) and the
    // fleet gauge serve.shard_health.byzantine must count it.
    serve::ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::Independent;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.numSdimms = 4;
    opt.shard.stashCapacity = 200;
    opt.shard.seed = 5;
    opt.shard.degradationPolicy = fault::DegradationPolicy::Degraded;
    opt.numShards = 2;
    opt.shardFaultPlans = {fault::FaultPlan::byzantineCorruptor(1, 16, 6),
                           fault::FaultPlan::none()};
    serve::ShardedSecureMemory mem(opt);

    const std::uint64_t n = 128;
    for (std::uint64_t b = 0; b < n; ++b)
        mem.writeBlock(b, valueBlock(b));
    for (std::uint64_t b = 0; b < n; ++b)
        EXPECT_EQ(mem.readBlock(b), valueBlock(b));

    util::MetricsRegistry m = mem.metrics();
    EXPECT_EQ(m.gauge("serve.shard_health.byzantine"), 1.0);
    EXPECT_EQ(mem.shardHealth(0), serve::ShardHealth::Degraded);
    EXPECT_EQ(mem.shardHealth(1), serve::ShardHealth::Healthy);
}

} // namespace
} // namespace secdimm::verify

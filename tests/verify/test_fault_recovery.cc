/**
 * @file
 * The robustness acceptance suite (docs/FAULTS.md): with >=1% frame
 * corruption plus DRAM bit flips, every secure protocol must complete
 * a 10k-access workload under the RetryThenStop policy with
 * fault.detected == fault.injected (no silent corruption), full
 * recovery within the retry budget, intact integrity state, and
 * bit-exact data.  Separate tests pin down the two degradation
 * policies past an exhausted budget: RetryThenStop fail-stops
 * (integrityOk() goes false, zeros are served, the bus schedule keeps
 * its shape) and Degraded quarantines the faulty SDIMM and routes new
 * leaf draws around it.
 *
 * Everything here is deterministic: workload, protocol, and injector
 * RNGs are all seeded, so these campaigns reproduce exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/secure_memory_system.hh"
#include "fault/fault_injector.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"

namespace secdimm::verify
{
namespace
{

constexpr std::size_t kAcceptanceAccesses = 10000;

/** Fill a block with a value stream derived from (salt, index). */
BlockData
valueBlock(std::uint64_t salt, std::uint64_t idx)
{
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = static_cast<std::uint8_t>(
            (salt * 0x9e3779b97f4a7c15ull + idx * 131 + i) & 0xff);
    }
    return d;
}

/**
 * Drive @p access(addr, op, data) with a mixed read/write workload
 * against a shadow mirror; every read of a previously written block
 * must return the mirrored value bit-exactly.  Returns the number of
 * mirrored reads checked (so a test can assert the workload actually
 * exercised the read path).
 */
template <typename AccessFn>
std::size_t
runMirroredWorkload(AccessFn &&access, std::uint64_t region_blocks,
                    std::size_t count, std::uint64_t workload_seed)
{
    Rng rng(workload_seed);
    std::unordered_map<Addr, BlockData> mirror;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Addr addr = rng.nextBelow(region_blocks);
        if (rng.nextBool(0.5)) {
            const BlockData d = valueBlock(workload_seed, i);
            access(addr, oram::OramOp::Write, &d);
            mirror[addr] = d;
        } else {
            const BlockData got =
                access(addr, oram::OramOp::Read, nullptr);
            const auto it = mirror.find(addr);
            if (it != mirror.end()) {
                ++checked;
                EXPECT_EQ(got, it->second)
                    << "corrupt data at block " << addr << " (access "
                    << i << ")";
            }
        }
    }
    return checked;
}

/** The >=1% acceptance plan of ISSUE.md (wire faults + DRAM flips). */
fault::FaultPlan
acceptancePlan(std::uint64_t seed)
{
    fault::FaultPlan plan;
    plan.linkCorruptRate = 0.01;
    plan.linkDropRate = 0.005;
    plan.linkDelayRate = 0.005;
    plan.dramBitFlipRate = 0.01;
    plan.queuePerturbRate = 0.01;
    // Generous budget: with per-attempt failure probability ~0.07
    // (worst case, a whole path re-read under 1% per-bucket flips),
    // 6 retries push the per-site exhaust probability below 1e-8.
    plan.maxRetries = 6;
    plan.seed = seed;
    return plan;
}

/** Common post-campaign recovery invariants. */
void
expectFullRecovery(const fault::FaultInjector &inj)
{
    EXPECT_GT(inj.injectedTotal(), 100u)
        << "campaign too quiet to mean anything";
    EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal())
        << "an injected fault went undetected";
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_EQ(inj.recoveredTotal(), inj.detectedTotal())
        << "a detected fault was neither recovered nor fail-stopped";
}

TEST(FaultRecovery, IndependentCompletes10kAccessCampaign)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, 11);

    fault::FaultInjector inj(acceptancePlan(21));
    o.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return o.access(a, op, d);
        },
        128, kAcceptanceAccesses, 42);

    EXPECT_GT(checked, 1000u);
    EXPECT_FALSE(o.failedStop());
    EXPECT_TRUE(o.integrityOk());
    EXPECT_EQ(o.quarantinedCount(), 0u);
    expectFullRecovery(inj);
}

TEST(FaultRecovery, SplitCompletes10kAccessCampaign)
{
    sdimm::SplitOram::Params sp;
    sp.tree.levels = 6;
    sp.tree.stashCapacity = 200;
    sp.slices = 2;
    sdimm::SplitOram o(sp, 13);

    fault::FaultInjector inj(acceptancePlan(23));
    o.setFaultInjector(&inj);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return o.access(a, op, d);
        },
        64, kAcceptanceAccesses, 43);

    EXPECT_GT(checked, 1000u);
    EXPECT_TRUE(o.integrityOk());
    expectFullRecovery(inj);
}

TEST(FaultRecovery, IndepSplitCompletes10kAccessCampaign)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, 17);

    fault::FaultInjector inj(acceptancePlan(27));
    o.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return o.access(a, op, d);
        },
        128, kAcceptanceAccesses, 44);

    EXPECT_GT(checked, 1000u);
    EXPECT_FALSE(o.failedStop());
    EXPECT_TRUE(o.integrityOk());
    expectFullRecovery(inj);
}

TEST(FaultRecovery, RetryThenStopFailsStopOnExhaustedBudget)
{
    // Both engines of the Independent protocol, two units each.
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 4;
    ip.perSdimm.stashCapacity = 150;
    ip.numSdimms = 2;
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 4;
    gp.perGroupTree.stashCapacity = 150;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    const std::pair<const char *,
                    std::unique_ptr<sdimm::IndependentFrontend>>
        engines[] = {
            {"Independent", std::make_unique<sdimm::IndependentOram>(ip, 7)},
            {"INDEP-SPLIT", std::make_unique<sdimm::IndepSplitOram>(gp, 7)},
        };

    fault::FaultPlan hostile; // Every frame corrupted: nothing gets
    hostile.linkCorruptRate = 1.0; // through, the budget must blow.
    hostile.maxRetries = 2;
    hostile.seed = 3;
    for (const auto &[name, o] : engines) {
        SCOPED_TRACE(name);
        fault::FaultInjector inj(hostile);
        o->setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);
        std::size_t bus_events = 0;
        std::vector<unsigned> appends(2, 0);
        o->attachObserver([&](TraceEventKind kind, std::uint64_t v) {
            ++bus_events;
            if (kind == TraceEventKind::ShortCmd &&
                v >> 8 == static_cast<std::uint64_t>(
                              sdimm::SdimmCommandType::Append))
                ++appends[v & 0xff];
        });

        const BlockData zero{};
        const BlockData first = o->access(0, oram::OramOp::Read, nullptr);
        EXPECT_EQ(first, zero);
        EXPECT_TRUE(o->failedStop());
        EXPECT_FALSE(o->integrityOk());
        EXPECT_GE(inj.unrecoveredTotal(), 1u);
        EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal());
        // The access whose ACCESS exhausted its budget still ends in
        // the one broadcast: exactly one APPEND per unit.
        EXPECT_EQ(appends, std::vector<unsigned>(2, 1u));

        // A stopped system still walks the full (shaped) schedule and
        // serves zeros -- it must not crash or leak which block was
        // lost.
        bus_events = 0;
        const BlockData later = o->access(1, oram::OramOp::Read, nullptr);
        EXPECT_EQ(later, zero);
        EXPECT_GT(bus_events, 0u);
    }
}

TEST(FaultRecovery, DegradedPolicyQuarantinesAndContinues)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 4;
    ip.perSdimm.stashCapacity = 150;
    ip.numSdimms = 4;
    sdimm::IndependentOram o(ip, 9);

    // Exhausts the 1-retry budget every few dozen accesses, but
    // gently enough that an evacuation stream usually survives.
    fault::FaultPlan rough;
    rough.linkCorruptRate = 0.05;
    rough.maxRetries = 1;
    rough.seed = 5;
    fault::FaultInjector inj(rough);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    // The protocol degrades instead of stopping: the first exhaustion
    // quarantines that SDIMM and the schedule keeps running on the
    // survivors.
    Addr a = 0;
    while (o.quarantinedCount() == 0 && a < 2000) {
        const BlockData d = valueBlock(1, a);
        o.access(a % 32, (a & 1) ? oram::OramOp::Write : oram::OramOp::Read,
                 (a & 1) ? &d : nullptr);
        ++a;
    }
    ASSERT_GE(o.quarantinedCount(), 1u);
    ASSERT_LT(o.quarantinedCount(), ip.numSdimms);
    EXPECT_FALSE(o.failedStop());
    EXPECT_TRUE(o.integrityOk());
    EXPECT_GT(inj.unrecoveredTotal(), 0u);
    EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal());

    // The quarantine is visible in the exported metrics.  (No
    // degraded accesses yet: the evacuation remapped every block off
    // the dead unit, so surviving traffic is served normally.)
    util::MetricsRegistry m;
    o.exportMetrics(m, "sdimm");
    EXPECT_GE(m.counter("sdimm.quarantined"), 1u);

    // Keep hammering: when the LAST unit's budget also exhausts there
    // is nowhere left to degrade to, and the protocol takes the
    // zero-survivor fail-stop with its distinct ledger entry instead
    // of quarantining everything and serving zeros.
    for (a = 0; a < 20000 && !o.failedStop(); ++a)
        o.access(a % 32, oram::OramOp::Read, nullptr);
    EXPECT_TRUE(o.failedStop());
    EXPECT_FALSE(o.integrityOk());
    EXPECT_EQ(inj.zeroSurvivorFailStops(), 1u);
    EXPECT_EQ(inj.detectedTotal(),
              inj.recoveredTotal() + inj.unrecoveredTotal());

    // A stopped system still walks the shaped schedule and counts the
    // zero-served accesses as degraded.
    for (Addr extra = 0; extra < 4; ++extra)
        o.access(extra % 32, oram::OramOp::Read, nullptr);
    EXPECT_GT(inj.degradedAccesses(), 0u);
}

TEST(FaultRecovery, ZeroRatePlanDoesNotPerturbTheProtocol)
{
    // An armed injector whose plan injects nothing must leave the
    // protocol bit-identical to an unarmed run: the injector draws
    // from its own RNG stream, never the protocol's.
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 5;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;

    sdimm::IndependentOram plain(ip, 31);
    sdimm::IndependentOram armed(ip, 31);
    ChannelObserver plain_bus, armed_bus;
    plain_bus.attach(plain);
    armed_bus.attach(armed);
    fault::FaultInjector inj(fault::FaultPlan::none());
    armed.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);

    Rng rng(8);
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.nextBelow(64);
        const bool write = rng.nextBool(0.5);
        const BlockData d = valueBlock(2, static_cast<std::uint64_t>(i));
        const BlockData got_plain =
            plain.access(a, write ? oram::OramOp::Write : oram::OramOp::Read,
                         write ? &d : nullptr);
        const BlockData got_armed =
            armed.access(a, write ? oram::OramOp::Write : oram::OramOp::Read,
                         write ? &d : nullptr);
        ASSERT_EQ(got_plain, got_armed) << "diverged at access " << i;
    }
    EXPECT_TRUE(plain_bus.events() == armed_bus.events());
    EXPECT_EQ(inj.injectedTotal(), 0u);
    EXPECT_EQ(inj.detectedTotal(), 0u);
}

// ---------------------------------------------------------------------
// Permanent faults (docs/FAULTS.md): watchdog detection, quarantine,
// and oblivious evacuation under DegradationPolicy::Degraded.
// ---------------------------------------------------------------------

TEST(PermanentFaults, IndependentSurvivesHardDeathMidCampaign)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, 11);

    // SDIMM 1 dies hard at access 2500 of a 10k-access campaign; no
    // transient noise, so every ledger entry is the one watchdog
    // episode and the campaign must come back bit-exact.
    const fault::FaultPlan plan = fault::FaultPlan::hardDeath(1, 2500, 21);
    fault::FaultInjector inj(plan);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return o.access(a, op, d);
        },
        128, kAcceptanceAccesses, 42);

    EXPECT_GT(checked, 1000u);
    EXPECT_FALSE(o.failedStop());
    EXPECT_TRUE(o.integrityOk());
    EXPECT_EQ(o.quarantinedCount(), 1u);
    EXPECT_TRUE(o.isQuarantined(1));

    EXPECT_EQ(inj.injected(fault::FaultKind::WatchdogTimeout), 1u);
    EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal());
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_EQ(inj.recoveredTotal(), inj.detectedTotal());
    EXPECT_EQ(inj.watchdogProbes(), plan.watchdogMaxProbes);
    EXPECT_GT(inj.watchdogBackoffCycles(), 0u);
    EXPECT_EQ(inj.quarantinedUnits(), 1u);

    // The dead subtree was drained: every block lives off SDIMM 1
    // now, and the evacuation stream was geometry-padded.
    EXPECT_GT(o.evacuatedBlocks(), 0u);
    EXPECT_EQ(inj.evacuatedBlocks(), o.evacuatedBlocks());
    EXPECT_GE(inj.evacuationAppends(),
              ip.perSdimm.capacityBlocks() * ip.numSdimms);
    const unsigned local_levels = ip.perSdimm.levels;
    for (Addr a = 0; a < 128; ++a)
        EXPECT_NE(o.leafOf(a) >> local_levels, 1u) << "block " << a;

    util::MetricsRegistry m;
    inj.exportMetrics(m, "fault");
    EXPECT_EQ(m.counter("fault.quarantined_sdimms"), 1u);
    EXPECT_GT(m.counter("fault.evacuated_blocks"), 0u);
}

TEST(PermanentFaults, IndepSplitSurvivesHardDeathMidCampaign)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, 17);

    const fault::FaultPlan plan = fault::FaultPlan::hardDeath(0, 2500, 27);
    fault::FaultInjector inj(plan);
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) {
            return o.access(a, op, d);
        },
        128, kAcceptanceAccesses, 44);

    EXPECT_GT(checked, 1000u);
    EXPECT_FALSE(o.failedStop());
    EXPECT_TRUE(o.integrityOk());
    EXPECT_EQ(o.quarantinedCount(), 1u);
    EXPECT_TRUE(o.isQuarantined(0));

    EXPECT_EQ(inj.injected(fault::FaultKind::WatchdogTimeout), 1u);
    EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal());
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_EQ(inj.recoveredTotal(), inj.detectedTotal());
    EXPECT_EQ(inj.quarantinedUnits(), 1u);
    EXPECT_GT(o.evacuatedBlocks(), 0u);
    EXPECT_EQ(inj.evacuatedBlocks(), o.evacuatedBlocks());

    util::MetricsRegistry m;
    o.exportMetrics(m, "sdimm.indep_split");
    EXPECT_EQ(m.counter("sdimm.indep_split.quarantined_groups"), 1u);
    EXPECT_GT(m.counter("sdimm.indep_split.evacuated_blocks"), 0u);
}

TEST(PermanentFaults, StuckAtIsCaughtOnTheFirstAccess)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 4;
    ip.perSdimm.stashCapacity = 150;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, 19);

    fault::FaultInjector inj(fault::FaultPlan::stuckAt(0, 33));
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const BlockData d = valueBlock(3, 0);
    o.access(0, oram::OramOp::Write, &d);
    EXPECT_TRUE(o.isQuarantined(0));
    EXPECT_EQ(inj.detected(fault::FaultKind::WatchdogTimeout), 1u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    // A boot-dead SDIMM holds no live blocks, so the evacuation is
    // pure geometry-padded dummies.
    EXPECT_EQ(o.evacuatedBlocks(), 0u);
    EXPECT_EQ(o.access(0, oram::OramOp::Read, nullptr), d);
    EXPECT_TRUE(o.integrityOk());
}

TEST(PermanentFaults, NonDegradedPolicyFailsStopOnDeadSdimm)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 4;
    ip.perSdimm.stashCapacity = 150;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, 23);

    fault::FaultInjector inj(fault::FaultPlan::stuckAt(0, 35));
    o.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);

    const BlockData zero{};
    EXPECT_EQ(o.access(0, oram::OramOp::Read, nullptr), zero);
    EXPECT_TRUE(o.failedStop());
    EXPECT_FALSE(o.integrityOk());
    EXPECT_EQ(inj.detected(fault::FaultKind::WatchdogTimeout), 1u);
    EXPECT_EQ(inj.unrecoveredTotal(), 1u);
    EXPECT_EQ(o.quarantinedCount(), 0u);
}

// ---------------------------------------------------------------------
// Facade level: Options.faultPlan arms every protocol uniformly.
// ---------------------------------------------------------------------

using Protocol = core::SecureMemorySystem::Protocol;

class FacadeFaultRecovery : public ::testing::TestWithParam<Protocol>
{
};

INSTANTIATE_TEST_SUITE_P(
    Protocols, FacadeFaultRecovery,
    ::testing::Values(Protocol::PathOram, Protocol::Freecursive,
                      Protocol::Independent, Protocol::Split,
                      Protocol::IndepSplit),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        switch (info.param) {
          case Protocol::PathOram: return "PathOram";
          case Protocol::Freecursive: return "Freecursive";
          case Protocol::Independent: return "Independent";
          case Protocol::Split: return "Split";
          case Protocol::IndepSplit: return "IndepSplit";
        }
        return "unknown";
    });

TEST_P(FacadeFaultRecovery, FaultPlanOptionArmsAndRecovers)
{
    core::SecureMemorySystem::Options opt;
    opt.protocol = GetParam();
    opt.capacityBytes = 64 << 10;
    opt.numSdimms = 2;
    opt.seed = 5;
    opt.faultPlan = acceptancePlan(99);
    opt.degradationPolicy = fault::DegradationPolicy::RetryThenStop;
    core::SecureMemorySystem mem(opt);
    ASSERT_NE(mem.faultInjector(), nullptr);

    const std::size_t checked = runMirroredWorkload(
        [&](Addr a, oram::OramOp op, const BlockData *d) -> BlockData {
            if (op == oram::OramOp::Write) {
                mem.writeBlock(a, *d);
                return BlockData{};
            }
            return mem.readBlock(a);
        },
        100, 1000, 45);

    EXPECT_GT(checked, 100u);
    EXPECT_TRUE(mem.integrityOk());
    const fault::FaultInjector &inj = *mem.faultInjector();
    EXPECT_GT(inj.injectedTotal(), 0u);
    EXPECT_EQ(inj.detectedTotal(), inj.injectedTotal());
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_EQ(inj.recoveredTotal(), inj.detectedTotal());

    // The fault.* family lands in the facade metric snapshot.
    const util::MetricsRegistry m = mem.metrics();
    EXPECT_EQ(m.counter("fault.injected.total"), inj.injectedTotal());
    EXPECT_EQ(m.counter("fault.unrecovered.total"), 0u);
}

TEST(FaultRecovery, FacadeWithoutPlanHasNoInjector)
{
    core::SecureMemorySystem::Options opt;
    opt.protocol = Protocol::Independent;
    opt.capacityBytes = 64 << 10;
    core::SecureMemorySystem mem(opt);
    EXPECT_EQ(mem.faultInjector(), nullptr);
    const util::MetricsRegistry m = mem.metrics();
    for (const auto &n : m.names())
        EXPECT_EQ(n.rfind("fault.", 0), std::string::npos) << n;
}

} // namespace
} // namespace secdimm::verify

/**
 * @file
 * Chaos-layer acceptance: correlated multi-unit failure groups,
 * re-entrant (nested) recovery, the zero-survivor fail-stop, and
 * proactive latency-tax retirement, each run against both engines
 * that share the Independent frontend (SDIMM Independent and
 * INDEP-SPLIT).  Everything is seeded and deterministic; the
 * data-survival assertions are bit-exact.
 *
 * The MidSweepRedraw regression pins the nastiest interaction found
 * while building the layer: a nested evacuation triggered inside a
 * slot's per-unit APPEND sweep can redraw that slot's destination
 * onto a unit the sweep had already passed, which silently dropped
 * the block until the slot-re-run fix.  It fires across many write
 * orders because the loss was order-dependent.  The
 * AccessBroadcastFollowsRedrawnDestination regression pins the same
 * redraw inside an access's own APPEND broadcast.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "util/rng.hh"

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

using Engine = std::unique_ptr<sdimm::IndependentFrontend>;

/** Levels of every unit's tree: a global leaf's unit is leaf >> 6. */
constexpr unsigned kUnitLevels = 6;

/**
 * Both engines that run the Independent frontend, over @p units units
 * whose trees have 6 levels: SDIMMs for Independent, 2-slice Split
 * groups for INDEP-SPLIT.  Every test below runs against each (the
 * burst and zero-survivor checks as one named test per engine), so
 * the one fault-policy code path is exercised through both designs'
 * wire steps.
 */
const std::pair<const char *, Engine (*)(unsigned, std::uint64_t)>
    kEngines[] = {
        {"Independent",
         [](unsigned units, std::uint64_t seed) -> Engine {
             sdimm::IndependentOram::Params p;
             p.perSdimm.levels = kUnitLevels;
             p.perSdimm.stashCapacity = 200;
             p.numSdimms = units;
             return std::make_unique<sdimm::IndependentOram>(p, seed);
         }},
        {"INDEP-SPLIT",
         [](unsigned units, std::uint64_t seed) -> Engine {
             sdimm::IndepSplitOram::Params p;
             p.perGroupTree.levels = kUnitLevels;
             p.perGroupTree.stashCapacity = 200;
             p.groups = units;
             p.slicesPerGroup = 2;
             return std::make_unique<sdimm::IndepSplitOram>(p, seed);
         }},
};

/** Write blocks 0..n-1 in a seeded shuffled order. */
void
writeShuffled(oram::OramEngine &o, std::uint64_t n, std::uint64_t order_seed)
{
    std::vector<std::uint64_t> order(n);
    for (std::uint64_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(order_seed);
    for (std::uint64_t i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.nextBelow(i + 1)]);
    for (const std::uint64_t b : order) {
        const BlockData d = valueBlock(b);
        o.access(b, oram::OramOp::Write, &d);
    }
}

std::uint64_t
countCorrupt(oram::OramEngine &o, std::uint64_t n)
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

/**
 * Units 1 and 2 die in one simultaneous burst: the watchdog finds
 * unit 1 first, and unit 2's death is discovered INSIDE unit 1's
 * evacuation stream -- the recovery must nest, keep the ledger
 * identity, and lose no data.
 */
void
expectBurstNestsInsideEvacuation(const char *name,
                                 Engine (*make)(unsigned, std::uint64_t))
{
    SCOPED_TRACE(name);
    fault::FaultInjector inj(
        fault::FaultPlan::correlatedDeath({1, 2}, 16, 0, 7));
    const Engine o = make(4, 11);
    o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t n = 256;
    writeShuffled(*o, n, 3);

    EXPECT_GT(o->nestedEvacuations(), 0u)
        << "the burst should be discovered mid-evacuation";
    EXPECT_EQ(o->quarantinedCount(), 2u);
    EXPECT_FALSE(o->failedStop());
    EXPECT_TRUE(o->integrityOk());
    EXPECT_EQ(countCorrupt(*o, n), 0u);
    expectLedgerIdentity(inj);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u)
        << "a survivable burst must be fully recovered";
    EXPECT_EQ(inj.correlatedGroups(), 1u);
    EXPECT_EQ(inj.correlatedUnits(), 2u);
    EXPECT_EQ(inj.correlatedActivations(), 2u);
}

TEST(ChaosRecovery, CorrelatedBurstNestsInsideEvacuation)
{
    expectBurstNestsInsideEvacuation(kEngines[0].first, kEngines[0].second);
}

TEST(ChaosRecovery, IndepSplitBurstNestsAtGroupLevel)
{
    expectBurstNestsInsideEvacuation(kEngines[1].first, kEngines[1].second);
}

TEST(ChaosRecovery, CascadeWithGapAlsoSurvives)
{
    // A cascade (gap > 0): unit 1 at access 16, unit 2 at access 24.
    // Both deaths are detected by the normal sweep; recovery must
    // leave the same end state as the burst.
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        fault::FaultInjector inj(
            fault::FaultPlan::correlatedDeath({1, 2}, 16, 8, 7));
        const Engine o = make(4, 11);
        o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

        const std::uint64_t n = 256;
        writeShuffled(*o, n, 5);
        EXPECT_EQ(o->quarantinedCount(), 2u);
        EXPECT_TRUE(o->integrityOk());
        EXPECT_EQ(countCorrupt(*o, n), 0u);
        expectLedgerIdentity(inj);
    }
}

TEST(ChaosRecovery, MidSweepRedrawRegression)
{
    // Regression for the mid-sweep destination redraw: across many
    // write orders, a nested evacuation must never drop the slot
    // whose APPEND sweep it interrupted.
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        for (std::uint64_t order_seed = 0; order_seed < 24; ++order_seed) {
            fault::FaultInjector inj(
                fault::FaultPlan::correlatedDeath({1, 2}, 16, 0, 12345));
            const Engine o = make(4, 99);
            o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
            const std::uint64_t n = 192;
            writeShuffled(*o, n, order_seed * 7919 + 11);
            EXPECT_EQ(countCorrupt(*o, n), 0u)
                << "data lost with write order seed " << order_seed;
            expectLedgerIdentity(inj);
        }
    }
}

/** The blocks resident in @p unit, read over the maintenance path. */
std::vector<oram::StashEntry>
residentIn(sdimm::IndependentFrontend &o, unsigned unit)
{
    if (auto *ind = dynamic_cast<sdimm::IndependentOram *>(&o))
        return ind->buffer(unit).residentBlocks();
    return dynamic_cast<sdimm::IndepSplitOram &>(o).group(unit)
        .residentBlocks();
}

TEST(ChaosRecovery, AccessBroadcastFollowsRedrawnDestination)
{
    // Regression for the per-access APPEND broadcast: with a zero
    // retry budget every link drop quarantines a unit and evacuates it
    // in the middle of an access, which can redraw the moving block's
    // destination.  After every write, the block must be resident in
    // the unit its PosMap entry names -- unless the write's own
    // downlink dropped it, which no retry can undo.
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        std::uint64_t checked = 0;
        for (std::uint64_t seed = 0; seed < 40; ++seed) {
            fault::FaultPlan plan;
            plan.linkDropRate = 0.004;
            plan.maxRetries = 0;
            plan.seed = 1000 + seed;
            fault::FaultInjector inj(plan);
            const Engine o = make(4, 500 + seed);
            const std::uint64_t n = 64;
            writeShuffled(*o, n, seed); // every block exists first
            o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

            Rng rng(9000 + seed);
            for (int i = 0; i < 400; ++i) {
                const Addr a = rng.nextBelow(n);
                const BlockData d = valueBlock(n + i);
                const std::size_t before = inj.events().size();
                o->access(a, oram::OramOp::Write, &d);
                if (o->failedStop())
                    break; // zero survivors: nowhere left to live
                bool downlink_lost = false;
                for (std::size_t k = before; k < inj.events().size(); ++k)
                    downlink_lost |=
                        !inj.events()[k].recovered &&
                        inj.events()[k].site == "downlink.FETCH_RESULT";
                if (downlink_lost)
                    continue;
                ++checked;
                const auto unit =
                    static_cast<unsigned>(o->leafOf(a) >> kUnitLevels);
                const auto resident = residentIn(*o, unit);
                EXPECT_TRUE(std::any_of(resident.begin(), resident.end(),
                                        [&](const oram::StashEntry &e) {
                                            return e.addr == a;
                                        }))
                    << "seed " << seed << " write " << i << ": block " << a
                    << " not resident in unit " << unit;
            }
        }
        EXPECT_GT(checked, 2000u);
    }
}

/**
 * Every unit dies at once: nothing is left to evacuate onto, so the
 * handler must fail-stop with the distinct zero-survivor ledger entry
 * instead of recursing into a corner.  Run at 2 and 4 units.
 */
void
expectZeroSurvivorFailStop(const char *name,
                           Engine (*make)(unsigned, std::uint64_t))
{
    for (const unsigned units : {2u, 4u}) {
        SCOPED_TRACE(std::string(name) + " x" + std::to_string(units));
        std::vector<unsigned> all(units);
        for (unsigned u = 0; u < units; ++u)
            all[u] = u;
        fault::FaultInjector inj(
            fault::FaultPlan::correlatedDeath(all, 8, 0, 7));
        const Engine o = make(units, 11);
        o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

        const std::uint64_t n = 64;
        writeShuffled(*o, n, 3);

        EXPECT_TRUE(o->failedStop());
        EXPECT_FALSE(o->integrityOk());
        EXPECT_EQ(inj.zeroSurvivorFailStops(), 1u);
        EXPECT_GE(inj.unrecoveredTotal(), 1u)
            << "the zero-survivor death must be ledgered as unrecovered";
        expectLedgerIdentity(inj);
    }
}

TEST(ChaosRecovery, ZeroSurvivorBurstFailsStopWithDistinctLedgerEntry)
{
    expectZeroSurvivorFailStop(kEngines[0].first, kEngines[0].second);
}

TEST(ChaosRecovery, ZeroSurvivorGroupBurstFailsStop)
{
    expectZeroSurvivorFailStop(kEngines[1].first, kEngines[1].second);
}

TEST(ProactiveRetirement, DegradedUnitIsEvacuatedBeforeItDies)
{
    // Unit 1 pays 1000 cycles of tax per access; with threshold 500
    // and the default hysteresis streak the EWMA crosses within ~11
    // accesses, and the unit is obliviously retired while still
    // functionally alive.
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        fault::FaultInjector inj(
            fault::FaultPlan::proactiveRetire(1, 1000, 500, 7));
        const Engine o = make(4, 11);
        o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

        const std::uint64_t n = 256;
        writeShuffled(*o, n, 3);

        EXPECT_EQ(o->retiredUnits(), 1u);
        EXPECT_EQ(inj.retiredUnits(), 1u);
        EXPECT_TRUE(inj.unitRetired(1));
        EXPECT_EQ(o->quarantinedCount(), 1u);
        EXPECT_FALSE(o->failedStop());
        EXPECT_TRUE(o->integrityOk());
        EXPECT_EQ(countCorrupt(*o, n), 0u);

        // Retirement is ledger-neutral: latency tax is not a fault.
        EXPECT_EQ(inj.unrecoveredTotal(), 0u);
        expectLedgerIdentity(inj);
        EXPECT_GT(inj.unitTaxEwma(1), 500.0);
    }
}

TEST(ProactiveRetirement, NeverRetiresTheLastUnit)
{
    // EVERY unit limps above the threshold: the policy may retire all
    // but one, and the survivor keeps serving.
    fault::FaultPlan p;
    for (unsigned u = 0; u < 4; ++u) {
        fault::PermanentFault f;
        f.kind = fault::PermanentFaultKind::DegradedLatency;
        f.unit = u;
        f.latencyCycles = 1000;
        p.permanentFaults.push_back(f);
    }
    p.retireTaxThresholdCycles = 500;
    p.seed = 7;
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        fault::FaultInjector inj(p);
        const Engine o = make(4, 11);
        o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

        const std::uint64_t n = 256;
        writeShuffled(*o, n, 3);

        EXPECT_LE(o->retiredUnits(), 3u);
        EXPECT_LT(o->quarantinedCount(), 4u);
        EXPECT_FALSE(o->failedStop());
        EXPECT_TRUE(o->integrityOk());
        EXPECT_EQ(countCorrupt(*o, n), 0u);
        expectLedgerIdentity(inj);
    }
}

TEST(ProactiveRetirement, HealthyUnitsAreNeverRetired)
{
    // Transients alone must not trip the latency-tax policy.
    fault::FaultPlan p = fault::FaultPlan::uniform(0.01, 7);
    p.retireTaxThresholdCycles = 500;
    for (const auto &[name, make] : kEngines) {
        SCOPED_TRACE(name);
        fault::FaultInjector inj(p);
        const Engine o = make(4, 11);
        o->setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

        const std::uint64_t n = 128;
        writeShuffled(*o, n, 3);
        EXPECT_EQ(o->retiredUnits(), 0u);
        EXPECT_EQ(inj.retireCandidates(), 0u);
        EXPECT_EQ(o->quarantinedCount(), 0u);
        EXPECT_EQ(countCorrupt(*o, n), 0u);
    }
}

} // namespace
} // namespace secdimm::verify

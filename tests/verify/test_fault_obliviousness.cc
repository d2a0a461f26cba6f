/**
 * @file
 * Retries must not leak: a fault-laden run (injected wire faults and
 * DRAM bit flips, each triggering detect-and-retry) is compared
 * against a fault-free run of the SAME workload structure over a
 * DIFFERENT address region, through the PR 2 trace checker.  Because
 * every injector roll happens unconditionally per opportunity
 * (message sent / bucket read), the retransmission schedule is a pure
 * function of (plan.seed, opportunity index) -- so the extra events it
 * adds are address-independent noise and the pair must stay
 * statistically indistinguishable for every secure design point.
 */

#include <gtest/gtest.h>

#include <optional>

#include "crypto/aes128.hh"
#include "fault/fault_injector.hh"
#include "oram/path_oram.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/trace_checker.hh"

namespace secdimm::verify
{
namespace
{

/** Fill a block with a value stream derived from (salt, index). */
BlockData
valueBlock(std::uint64_t salt, std::uint64_t idx)
{
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = static_cast<std::uint8_t>(
            (salt * 0x9e3779b97f4a7c15ull + idx * 31 + i) & 0xff);
    }
    return d;
}

/** Drive @p o with the shared structure. */
void
driveFunctional(oram::OramEngine &o, std::uint64_t structure_seed,
                std::uint64_t base_block, std::uint64_t region_blocks,
                std::uint64_t value_salt, std::size_t count)
{
    Rng rng(structure_seed);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t idx;
        if (!pool.empty() && rng.nextBool(0.3)) {
            idx = pool[rng.nextBelow(pool.size())];
        } else {
            idx = rng.nextBelow(region_blocks);
            pool.push_back(idx);
        }
        const bool write = rng.nextBool(0.5);
        const BlockData d = valueBlock(value_salt, idx);
        o.access(base_block + idx,
                 write ? oram::OramOp::Write : oram::OramOp::Read,
                 write ? &d : nullptr);
    }
}

/** 1-3% wire faults plus DRAM flips; generous budget, no fail-stop. */
fault::FaultPlan
ladenPlan(std::uint64_t seed)
{
    fault::FaultPlan plan;
    plan.linkCorruptRate = 0.01;
    plan.linkDropRate = 0.01;
    plan.linkDelayRate = 0.01;
    plan.dramBitFlipRate = 0.01;
    plan.queuePerturbRate = 0.01;
    plan.maxRetries = 6;
    plan.seed = seed;
    return plan;
}

std::vector<TraceEvent>
pathOramStoreTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                   bool with_faults)
{
    oram::OramParams p;
    p.levels = 8;
    p.stashCapacity = 200;
    oram::PathOram o(p, crypto::makeKey(0xaa, oram_seed),
                     crypto::makeKey(0xbb, oram_seed * 3 + 1),
                     oram_seed);
    std::optional<fault::FaultInjector> inj;
    if (with_faults) {
        inj.emplace(ladenPlan(oram_seed));
        o.setFaultInjector(&*inj);
    }
    ChannelObserver obs;
    obs.attach(o);
    driveFunctional(o, 42, base_block, 256, oram_seed, 512);
    if (with_faults) {
        EXPECT_GT(inj->injectedTotal(), 0u);
        EXPECT_EQ(inj->unrecoveredTotal(), 0u);
    }
    return obs.events();
}

TEST(FaultObliviousness, PathOramRetriesDoNotLeakRegion)
{
    // Fault-laden over region A vs fault-free over disjoint region B:
    // the extra (retried) bucket reads must not betray the region.
    const TraceComparison c =
        compareTraces(pathOramStoreTrace(11, 0, true),
                      pathOramStoreTrace(77, 256, false));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

std::vector<TraceEvent>
independentBusTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                    bool with_faults)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    std::optional<fault::FaultInjector> inj;
    if (with_faults) {
        inj.emplace(ladenPlan(oram_seed));
        o.setFaultInjector(&*inj,
                           fault::DegradationPolicy::RetryThenStop);
    }
    driveFunctional(o, 42, base_block, 128, oram_seed, 384);
    if (with_faults) {
        EXPECT_GT(inj->injectedTotal(), 0u);
        EXPECT_FALSE(o.failedStop());
    }
    // The visible trace is the (command type, target SDIMM) stream --
    // retransmissions included, exactly as a bus analyst would see it.
    return obs.events();
}

TEST(FaultObliviousness, IndependentRetriesDoNotLeakRegion)
{
    const TraceComparison c =
        compareTraces(independentBusTrace(11, 0, true),
                      independentBusTrace(77, 128, false));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

TEST(FaultObliviousness, IndependentFaultScheduleIsDataIndependent)
{
    // Same addresses, same injector seed, different VALUES (the salt
    // is the oram seed's job only in disjoint-region tests): if any
    // roll were gated on data, the two command streams would diverge.
    const auto run = [](std::uint64_t value_salt) {
        sdimm::IndependentOram::Params ip;
        ip.perSdimm.levels = 6;
        ip.perSdimm.stashCapacity = 200;
        ip.numSdimms = 2;
        sdimm::IndependentOram o(ip, 19);
        ChannelObserver obs;
        obs.attach(o);
        fault::FaultInjector inj(ladenPlan(55));
        o.setFaultInjector(&inj,
                           fault::DegradationPolicy::RetryThenStop);
        driveFunctional(o, 42, 0, 128, value_salt, 256);
        return obs.events();
    };
    // Not merely statistically close: the schedules are IDENTICAL.
    EXPECT_EQ(run(5), run(1234));
}

std::vector<TraceEvent>
postQuarantineTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                    bool hard_death)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    // Either SDIMM 1 dies mid-warm-up or it was dead from boot (the
    // survivor-only baseline); in both cases the measured window
    // starts with the unit quarantined and its subtree evacuated.
    fault::FaultInjector inj(
        hard_death ? fault::FaultPlan::hardDeath(1, 200, oram_seed)
                   : fault::FaultPlan::stuckAt(1, oram_seed));
    o.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
    driveFunctional(o, 42, base_block, 128, oram_seed, 400);
    EXPECT_TRUE(o.isQuarantined(1));
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    obs.clear();
    driveFunctional(o, 43, base_block, 128, oram_seed, 384);
    return obs.events();
}

TEST(FaultObliviousness, PostQuarantineTraceMatchesSurvivorOnlyRun)
{
    // A bus analyst watching the channel AFTER the fail-over must not
    // be able to tell a system that lost an SDIMM mid-run from one
    // that booted without it (disjoint regions, different seeds).
    const TraceComparison c =
        compareTraces(postQuarantineTrace(11, 0, true),
                      postQuarantineTrace(77, 128, false));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

std::vector<TraceEvent>
indepSplitBusTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                   bool with_faults)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    std::optional<fault::FaultInjector> inj;
    if (with_faults) {
        inj.emplace(ladenPlan(oram_seed));
        o.setFaultInjector(&*inj,
                           fault::DegradationPolicy::RetryThenStop);
    }
    driveFunctional(o, 42, base_block, 128, oram_seed, 384);
    if (with_faults) {
        EXPECT_GT(inj->injectedTotal(), 0u);
        EXPECT_FALSE(o.failedStop());
    }
    return obs.events();
}

TEST(FaultObliviousness, IndepSplitRetriesDoNotLeakRegion)
{
    const TraceComparison c =
        compareTraces(indepSplitBusTrace(11, 0, true),
                      indepSplitBusTrace(77, 128, false));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

std::vector<TraceEvent>
splitLeafTrace(std::uint64_t oram_seed, std::uint64_t base_block,
               bool with_faults)
{
    sdimm::SplitOram::Params sp;
    sp.tree.levels = 6;
    sp.tree.stashCapacity = 200;
    sp.slices = 2;
    sdimm::SplitOram o(sp, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    std::optional<fault::FaultInjector> inj;
    if (with_faults) {
        inj.emplace(ladenPlan(oram_seed));
        o.setFaultInjector(&*inj);
    }
    driveFunctional(o, 42, base_block, 64, oram_seed, 4096);
    if (with_faults) {
        EXPECT_GT(inj->injectedTotal(), 0u);
        EXPECT_TRUE(o.integrityOk());
    }
    // The leaf (path) choice is what the CPU channel reveals per
    // access; retries re-walk the SAME path, so the sequence is
    // untouched by faults (4096 samples: see test_obliviousness.cc).
    return obs.events();
}

TEST(FaultObliviousness, SplitLeafSequenceUnaffectedByFaults)
{
    const TraceComparison c = compareTraces(
        splitLeafTrace(11, 0, true), splitLeafTrace(77, 64, false));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

} // namespace
} // namespace secdimm::verify

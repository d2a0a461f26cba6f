/**
 * @file
 * Retries must not leak: fault-laden runs (injected wire faults and
 * DRAM bit flips, each triggering detect-and-retry) of the SAME
 * workload structure over two DIFFERENT address regions go through
 * the calibrated gate (verify::compareCalibrated), the fault plan and
 * the engine re-seeded for every run.  Because every injector roll
 * happens unconditionally per opportunity (message sent / bucket
 * read), the retransmission schedule is a pure function of
 * (plan.seed, opportunity index) -- so the extra events it adds are
 * address-independent noise and the region must stay hidden for
 * every secure design point.
 */

#include <gtest/gtest.h>

#include "crypto/aes128.hh"
#include "fault/fault_injector.hh"
#include "oram/path_oram.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"

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

/**
 * The calibrated gate over @p trace(seed, base block): the secret is
 * the region, block 0 or @p base_b on, and every run draws its own
 * engine and fault-plan seed.
 */
template <typename Trace>
CalibratedComparison
regionGate(std::uint64_t base_b, Trace &&trace)
{
    return compareCalibrated([&](unsigned secret, std::uint64_t draw) {
        Observation o;
        o.shardTraces.push_back(trace(100 + draw, secret ? base_b : 0));
        return o;
    });
}

std::vector<TraceEvent>
pathOramStoreTrace(std::uint64_t oram_seed, std::uint64_t base_block)
{
    oram::OramParams p;
    p.levels = 8;
    p.stashCapacity = 200;
    oram::PathOram o(p, crypto::makeKey(0xaa, oram_seed),
                     crypto::makeKey(0xbb, oram_seed * 3 + 1),
                     oram_seed);
    fault::FaultInjector inj(ladenPlan(oram_seed));
    o.setFaultInjector(&inj);
    ChannelObserver obs;
    obs.attach(o);
    driveFunctional(o, 42, base_block, 256, oram_seed, 512);
    EXPECT_GT(inj.injectedTotal(), 0u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    return obs.events();
}

TEST(FaultObliviousness, PathOramRetriesDoNotLeakRegion)
{
    // Region A vs disjoint region B, both fault-laden: the extra
    // (retried) bucket reads must not betray the region.
    const CalibratedComparison c = regionGate(256, pathOramStoreTrace);
    EXPECT_TRUE(c.pass) << c.summary();
}

std::vector<TraceEvent>
independentBusTrace(std::uint64_t oram_seed, std::uint64_t base_block)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    fault::FaultInjector inj(ladenPlan(oram_seed));
    o.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);
    driveFunctional(o, 42, base_block, 128, oram_seed, 384);
    EXPECT_GT(inj.injectedTotal(), 0u);
    EXPECT_FALSE(o.failedStop());
    // The visible trace is the (command type, target SDIMM) stream --
    // retransmissions included, exactly as a bus analyst would see it.
    return obs.events();
}

TEST(FaultObliviousness, IndependentRetriesDoNotLeakRegion)
{
    const CalibratedComparison c = regionGate(128, independentBusTrace);
    EXPECT_TRUE(c.pass) << c.summary();
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
    // be able to tell a system that lost an SDIMM mid-run (over one
    // region) from one that booted without it (over the other).
    const CalibratedComparison c =
        compareCalibrated([](unsigned secret, std::uint64_t draw) {
            Observation o;
            o.shardTraces.push_back(postQuarantineTrace(
                100 + draw, secret ? 128 : 0, secret == 0));
            return o;
        });
    EXPECT_TRUE(c.pass) << c.summary();
}

std::vector<TraceEvent>
indepSplitBusTrace(std::uint64_t oram_seed, std::uint64_t base_block)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    fault::FaultInjector inj(ladenPlan(oram_seed));
    o.setFaultInjector(&inj, fault::DegradationPolicy::RetryThenStop);
    driveFunctional(o, 42, base_block, 128, oram_seed, 384);
    EXPECT_GT(inj.injectedTotal(), 0u);
    EXPECT_FALSE(o.failedStop());
    return obs.events();
}

TEST(FaultObliviousness, IndepSplitRetriesDoNotLeakRegion)
{
    const CalibratedComparison c = regionGate(128, indepSplitBusTrace);
    EXPECT_TRUE(c.pass) << c.summary();
}

std::vector<TraceEvent>
splitLeafTrace(std::uint64_t oram_seed, std::uint64_t base_block)
{
    sdimm::SplitOram::Params sp;
    sp.tree.levels = 6;
    sp.tree.stashCapacity = 200;
    sp.slices = 2;
    sdimm::SplitOram o(sp, oram_seed);
    ChannelObserver obs;
    obs.attach(o);
    fault::FaultInjector inj(ladenPlan(oram_seed));
    o.setFaultInjector(&inj);
    driveFunctional(o, 42, base_block, 64, oram_seed, 4096);
    EXPECT_GT(inj.injectedTotal(), 0u);
    EXPECT_TRUE(o.integrityOk());
    // The leaf (path) choice is what the CPU channel reveals per
    // access; retries re-walk the SAME path, so the sequence is
    // untouched by faults.
    return obs.events();
}

TEST(FaultObliviousness, SplitLeafSequenceUnaffectedByFaults)
{
    const CalibratedComparison c = regionGate(64, splitLeafTrace);
    EXPECT_TRUE(c.pass) << c.summary();
}

} // namespace
} // namespace secdimm::verify

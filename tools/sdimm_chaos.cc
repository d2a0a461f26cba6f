/**
 * @file
 * Chaos-campaign CLI: composes transient, permanent, and CORRELATED
 * faults against a multi-threaded ShardedSecureMemory under client
 * load, then measures that the wreckage stayed contained:
 *
 *  - ledger identity on every live shard (detected == recovered +
 *    unrecovered, held exactly through nested evacuations);
 *  - bit-exact data survival of every block owned by a live shard
 *    (evacuation off dead/retired units must not lose a byte);
 *  - typed degradation of the dead shard (every request resolves
 *    serve::ShardFailedError; no hang, no fabricated zeros);
 *  - serve.shard_health gauges consistent with what actually died;
 *  - nested-recovery evidence (a correlated burst detected INSIDE a
 *    running evacuation), proactive retirement evidence, and the
 *    zero-survivor FailStop with its distinct ledger entry;
 *  - post-chaos indistinguishability: deepCompareTraces over two
 *    secret-differing runs with the SAME (public) fault plan, the
 *    calibrated gate (verify::compareCalibrated) over the schedules of
 *    secret-differing sharded runs, and a zero-MI leak_meter
 *    measurement with chaos armed;
 *  - byzantine campaigns (unit designs): each lying-unit archetype --
 *    persistent corruptor, 25%-duty liar, sub-threshold liar,
 *    lost-write ACKer / group equivocator -- driven against the
 *    mistrust scorer, asserting conviction (or principled restraint),
 *    exact ledger identity, bounded data loss, and post-conviction
 *    deep-trace + zero-MI indistinguishability;
 *  - KV application campaign: concurrent zipfian clients drive the
 *    oblivious KV store (src/app) while bursts, retirements, and a
 *    byzantine unit rage underneath (no dead shard -- KV slots span
 *    all shards), then post-chaos read-your-writes, store integrity,
 *    and secret-independence of the schedule (and, for tree
 *    protocols, per-shard traces) are gated, the latter by the
 *    calibrated gate over re-seeded runs of two client op streams.
 *
 * Usage:
 *   sdimm_chaos [--design path|freecursive|independent|split|
 *                 indepsplit|all]
 *               [--seed S] [--seeds N] [--requests N] [--threads T]
 *               [--shards N] [--out FILE] [--check]
 *
 * `--check` turns the verdict into an exit status for CI: 0 = every
 * campaign and post-chaos expectation held, 1 = violated, 2 = usage
 * error.  `--seeds N` runs the campaign phase at seeds S..S+N-1 (the
 * post-chaos phase runs once, at S).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/kv_store.hh"
#include "app/kv_workload.hh"
#include "core/secure_memory_system.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan_io.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "serve/sharded_memory.hh"
#include "util/bit_utils.hh"
#include "util/rng.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_checker.hh"

namespace
{

using namespace secdimm;
using Protocol = core::SecureMemorySystem::Protocol;

struct DesignSpec
{
    const char *cli;
    const char *name;
    Protocol protocol;
    /** Consumes unitDead(): correlated death / retirement / watchdog
     *  quarantine apply (Independent and IndepSplit). */
    bool unitDesign;
    /** leak_meter expectation (the PLB locality channel). */
    bool expectLeak;
};

const std::vector<DesignSpec> kDesigns = {
    {"path", "PathOram", Protocol::PathOram, false, false},
    {"freecursive", "Freecursive", Protocol::Freecursive, false, true},
    {"independent", "Independent", Protocol::Independent, true, false},
    {"split", "Split", Protocol::Split, false, false},
    {"indepsplit", "IndepSplit", Protocol::IndepSplit, true, false},
};

/** SDIMM/group count inside each unit-design shard: big enough that a
 *  2-unit correlated burst leaves survivors to evacuate onto. */
constexpr unsigned kUnitsPerShard = 4;

/* ------------------------------------------------------------------ */
/* Per-shard chaos plans                                               */
/* ------------------------------------------------------------------ */

/** Mild uniform transients: recoverable under the default retry
 *  budget, so they exercise the ledger without killing anything. */
fault::FaultPlan
transientPlan(std::uint64_t seed)
{
    return fault::FaultPlan::uniform(0.002, seed);
}

/** Shard 1 (unit designs): units 1 and 2 die as one simultaneous
 *  burst -- the second death is discovered INSIDE the evacuation of
 *  the first (nested recovery). */
fault::FaultPlan
burstPlan(std::uint64_t seed)
{
    fault::FaultPlan p =
        fault::FaultPlan::correlatedDeath({1, 2}, 64, 0, seed);
    p.linkCorruptRate = 0.002;
    p.linkDropRate = 0.002;
    return p;
}

/** Shard 2 (unit designs): unit 1 limps (1000 cycles of tax per op)
 *  and the retirement policy evacuates it proactively. */
fault::FaultPlan
retirePlan(std::uint64_t seed)
{
    return fault::FaultPlan::proactiveRetire(1, 1000, 500, seed);
}

/** The dead shard.  Unit designs: EVERY unit dies in one burst, so
 *  the last handleDead lands on zero survivors and fail-stops with
 *  the distinct ledger entry.  Flat designs: saturating transients
 *  with no retry budget, so the first fault goes unrecovered. */
fault::FaultPlan
deadShardPlan(bool unit_design, std::uint64_t seed)
{
    if (unit_design) {
        std::vector<unsigned> all;
        for (unsigned u = 0; u < kUnitsPerShard; ++u)
            all.push_back(u);
        return fault::FaultPlan::correlatedDeath(all, 32, 0, seed);
    }
    fault::FaultPlan p = fault::FaultPlan::uniform(0.25, seed);
    p.maxRetries = 0;
    return p;
}

/** One plan per shard; the LAST shard gets the dead-shard plan. */
std::vector<fault::FaultPlan>
campaignPlans(const DesignSpec &spec, unsigned shards,
              std::uint64_t seed)
{
    std::vector<fault::FaultPlan> plans;
    for (unsigned s = 0; s < shards; ++s) {
        const std::uint64_t shard_seed = seed * 1000003 + s;
        if (s + 1 == shards)
            plans.push_back(deadShardPlan(spec.unitDesign, shard_seed));
        else if (spec.unitDesign && s == 1)
            plans.push_back(burstPlan(shard_seed));
        else if (spec.unitDesign && s == 2)
            plans.push_back(retirePlan(shard_seed));
        else
            plans.push_back(transientPlan(shard_seed));
    }
    return plans;
}

serve::ShardedSecureMemory::Options
campaignOptions(const DesignSpec &spec, unsigned shards,
                std::uint64_t seed)
{
    serve::ShardedSecureMemory::Options o;
    o.shard.protocol = spec.protocol;
    o.shard.capacityBytes = 1 << 18; // 4096 blocks across the service.
    o.shard.numSdimms = spec.unitDesign ? kUnitsPerShard : 2;
    o.shard.stashCapacity = 200;
    o.shard.seed = seed;
    o.shard.degradationPolicy = spec.unitDesign
                                    ? fault::DegradationPolicy::Degraded
                                    : fault::DegradationPolicy::RetryThenStop;
    o.numShards = shards;
    o.shardFaultPlans = campaignPlans(spec, shards, seed);
    return o;
}

/* ------------------------------------------------------------------ */
/* Phase A: the sharded chaos campaign                                 */
/* ------------------------------------------------------------------ */

BlockData
stampBlock(std::uint64_t block, std::uint64_t seed)
{
    BlockData d{};
    const std::uint64_t tag = block * 0x9e3779b97f4a7c15ull + seed;
    for (std::size_t i = 0; i < blockBytes; ++i)
        d[i] = static_cast<std::uint8_t>(
            (tag >> ((i % 8) * 8)) ^ (0x5a + i));
    return d;
}

struct ShardOutcome
{
    unsigned shard = 0;
    serve::ShardHealth health = serve::ShardHealth::Healthy;
    std::uint64_t errors = 0; ///< ShardFailedError count seen by clients.
    std::uint64_t detected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t unrecovered = 0;
    std::uint64_t nestedEvacuations = 0;
    std::uint64_t retiredUnits = 0;
    std::uint64_t zeroSurvivorFailStops = 0;
    bool ledgerOk = false;
};

struct CampaignResult
{
    std::uint64_t seed = 0;
    std::vector<ShardOutcome> shards;
    std::uint64_t verifiedBlocks = 0;
    std::uint64_t skippedDeadBlocks = 0;
    std::uint64_t corruptBlocks = 0;
    bool dataOk = false;
    bool typedErrorsOk = false;
    bool healthOk = false;
    bool ledgerOk = false;
    bool nestedOk = false;
    bool retiredOk = false;
    bool zeroSurvivorOk = false;
    bool pass = false;
};

/** Counter prefix of the unit-protocol metrics inside one shard. */
std::string
unitMetricPrefix(const DesignSpec &spec)
{
    return spec.protocol == Protocol::IndepSplit ? "sdimm.indep_split"
                                                 : "sdimm";
}

CampaignResult
runCampaign(const DesignSpec &spec, std::uint64_t seed,
            std::uint64_t requests, unsigned threads, unsigned shards)
{
    CampaignResult r;
    r.seed = seed;

    serve::ShardedSecureMemory mem(campaignOptions(spec, shards, seed));
    const std::uint64_t cap = mem.capacityBlocks();
    const std::uint64_t stamped = std::min<std::uint64_t>(requests, cap);

    // T clients each write a contiguous chunk of the stamped range;
    // consecutive blocks alternate shards, so every client hits every
    // shard (including the one that dies under it).
    std::vector<std::vector<std::uint64_t>> errs(
        threads, std::vector<std::uint64_t>(shards, 0));
    const std::uint64_t per_thread = (requests + threads - 1) / threads;
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            const std::uint64_t lo = t * per_thread;
            const std::uint64_t hi =
                std::min<std::uint64_t>(requests, lo + per_thread);
            for (std::uint64_t i = lo; i < hi; ++i) {
                const std::uint64_t block = i % cap;
                try {
                    mem.writeBlock(block, stampBlock(block, seed));
                } catch (const serve::ShardFailedError &e) {
                    ++errs[t][e.shard()];
                }
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    mem.drain();

    // Survival: every stamped block owned by a live shard reads back
    // bit-exact (nested evacuation and retirement must not lose data).
    for (std::uint64_t b = 0; b < stamped; ++b) {
        const unsigned shard = mem.shardOf(b);
        if (mem.shardHealth(shard) == serve::ShardHealth::Failed) {
            ++r.skippedDeadBlocks;
            continue;
        }
        try {
            if (mem.readBlock(b) != stampBlock(b, seed)) {
                ++r.corruptBlocks;
                std::fprintf(stderr,
                             "corrupt block %llu (shard %u)\n",
                             static_cast<unsigned long long>(b), shard);
            }
            ++r.verifiedBlocks;
        } catch (const serve::ShardFailedError &e) {
            ++errs[0][e.shard()]; // Died between write and verify.
            ++r.skippedDeadBlocks;
        }
    }

    const std::string unit_prefix = unitMetricPrefix(spec);
    for (unsigned s = 0; s < shards; ++s) {
        ShardOutcome o;
        o.shard = s;
        o.health = mem.shardHealth(s);
        for (unsigned t = 0; t < threads; ++t)
            o.errors += errs[t][s];
        const util::MetricsRegistry sm = mem.shardMetrics(s);
        o.detected = sm.counter("fault.detected.total");
        o.recovered = sm.counter("fault.recovered.total");
        o.unrecovered = sm.counter("fault.unrecovered.total");
        o.zeroSurvivorFailStops =
            sm.counter("fault.zero_survivor_failstops");
        o.nestedEvacuations =
            sm.counter(unit_prefix + ".nested_evacuations");
        o.retiredUnits = sm.counter(unit_prefix + ".retired_units");
        o.ledgerOk = o.detected == o.recovered + o.unrecovered;
        r.shards.push_back(o);
    }

    const unsigned dead = shards - 1;
    r.dataOk = r.corruptBlocks == 0 && r.verifiedBlocks > 0;
    r.typedErrorsOk = r.shards[dead].errors > 0;
    for (unsigned s = 0; s + 1 < shards; ++s)
        r.typedErrorsOk = r.typedErrorsOk && r.shards[s].errors == 0;
    r.ledgerOk = true;
    for (const ShardOutcome &o : r.shards)
        r.ledgerOk = r.ledgerOk && o.ledgerOk;

    const util::MetricsRegistry all = mem.metrics();
    const double healthy = all.gauge("serve.shard_health.healthy");
    const double degraded = all.gauge("serve.shard_health.degraded");
    const double failed = all.gauge("serve.shard_health.failed");
    r.healthOk = failed >= 1.0 &&
                 healthy + degraded + failed ==
                     static_cast<double>(shards) &&
                 r.shards[dead].health == serve::ShardHealth::Failed;

    if (spec.unitDesign) {
        r.nestedOk = r.shards[1].nestedEvacuations > 0;
        r.retiredOk = r.shards[2].retiredUnits > 0;
        r.zeroSurvivorOk = r.shards[dead].zeroSurvivorFailStops > 0;
    } else {
        // Flat designs have no evacuable units; the dead shard must
        // still fail via the unrecovered-transient path.
        r.nestedOk = true;
        r.retiredOk = true;
        r.zeroSurvivorOk = r.shards[dead].unrecovered > 0;
    }
    r.pass = r.dataOk && r.typedErrorsOk && r.healthOk && r.ledgerOk &&
             r.nestedOk && r.retiredOk && r.zeroSurvivorOk;
    return r;
}

/* ------------------------------------------------------------------ */
/* Phase A2: byzantine campaigns (unit designs only)                   */
/* ------------------------------------------------------------------ */

/**
 * One scripted byzantine adversary against a single unit-design ORAM:
 * the plan arms a lying unit plus the mistrust scorer, the workload
 * stamps then re-reads a block range, and the checks assert the
 * defense outcome -- conviction (or, for sub-threshold duty cycles,
 * NO conviction), exact ledger identity, and bit-exact survival of
 * everything the adversary did not irrecoverably destroy.
 */
struct ByzCase
{
    const char *name;
    fault::FaultPlan plan;
    /** Exactly one conviction expected (false: exactly zero). */
    bool expectConvict = true;
    /** Lost-write adversary: data loss is real but must be bounded by
     *  (and attributed as) the detected ByzantineLostWrite count. */
    bool lossy = false;
    /** Read passes over the stamped range before the verify pass. */
    unsigned passes = 6;
    /** Keep reading until at least this many accesses ran (the
     *  fault-free soak wants >= 10k to show zero false convictions). */
    std::uint64_t minAccesses = 0;
};

/** The byzantine archetypes of docs/FAULTS.md, bracketing the
 *  conviction threshold: duty 1.0 and 0.25 must convict, duty 0.002
 *  must stay below the hysteresis (isolated lies decay before the
 *  streak closes), and a fault-free run under the armed scorer must
 *  never convict anyone. */
std::vector<ByzCase>
byzCases(const DesignSpec &spec, std::uint64_t seed)
{
    std::vector<ByzCase> cases;
    cases.push_back({"corruptor",
                     fault::FaultPlan::byzantineCorruptor(1, 16, seed),
                     true, false, 6, 0});
    cases.push_back({"liar25",
                     fault::FaultPlan::byzantineLiar(1, 0.25, 16, seed),
                     true, false, 6, 0});
    cases.push_back({"liar_subthreshold",
                     fault::FaultPlan::byzantineLiar(1, 0.002, 16, seed),
                     false, false, 3, 0});
    if (spec.protocol == Protocol::Independent)
        cases.push_back(
            {"lost_write",
             fault::FaultPlan::byzantine(fault::ByzantineFaultKind::LostWrite,
                                         1, 0.5, 16, 0.12, seed),
             true, true, 6, 0});
    else
        cases.push_back(
            {"equivocator",
             fault::FaultPlan::byzantine(
                 fault::ByzantineFaultKind::Equivocate, 1, 1.0, 16, 0.12,
                 seed),
             true, false, 6, 0});
    fault::FaultPlan armed;
    armed.mistrustConvictThreshold = 0.12;
    armed.seed = seed;
    cases.push_back({"fault_free_armed", armed, false, false, 3, 10000});
    return cases;
}

struct ByzOutcome
{
    std::string name;
    std::uint64_t accesses = 0;
    std::uint64_t convictions = 0;
    std::uint64_t detected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t unrecovered = 0;
    std::uint64_t lostWrites = 0; ///< detected ByzantineLostWrite.
    std::uint64_t corruptBlocks = 0;
    bool convictOk = false;
    bool ledgerOk = false;
    bool dataOk = false;
    bool pass = false;
};

template <typename Oram>
ByzOutcome
driveByzCase(Oram &o, fault::FaultInjector &inj, const ByzCase &bc,
             std::uint64_t seed)
{
    ByzOutcome r;
    r.name = bc.name;
    const std::uint64_t n =
        std::min<std::uint64_t>(o.capacityBlocks() / 2, 256);
    for (std::uint64_t a = 0; a < n; ++a) {
        const BlockData d = stampBlock(a, seed);
        o.access(a, oram::OramOp::Write, &d);
        ++r.accesses;
    }
    // Read passes: enough touches of the lying unit for the mistrust
    // EWMA to cross (or demonstrably NOT cross) the hysteresis.
    unsigned pass = 0;
    while (pass < bc.passes || r.accesses < bc.minAccesses) {
        for (std::uint64_t a = 0; a < n; ++a) {
            o.access(a, oram::OramOp::Read, nullptr);
            ++r.accesses;
        }
        if (++pass > 64)
            break;
    }
    for (std::uint64_t a = 0; a < n; ++a) {
        if (o.access(a, oram::OramOp::Read, nullptr) !=
            stampBlock(a, seed))
            ++r.corruptBlocks;
        ++r.accesses;
    }

    r.convictions = inj.convictedUnits();
    r.detected = inj.detectedTotal();
    r.recovered = inj.recoveredTotal();
    r.unrecovered = inj.unrecoveredTotal();
    r.lostWrites = inj.detected(fault::FaultKind::ByzantineLostWrite);
    r.convictOk = bc.expectConvict ? r.convictions == 1
                                   : r.convictions == 0;
    r.ledgerOk = r.detected == r.recovered + r.unrecovered;
    if (bc.lossy) {
        // Dropped payloads are gone, but every loss must be detected
        // at read-back, attributed to the culprit, and bounded.
        r.dataOk = r.lostWrites > 0 &&
                   r.corruptBlocks <= r.lostWrites &&
                   r.unrecovered == r.lostWrites;
    } else {
        r.dataOk = r.corruptBlocks == 0 && r.unrecovered == 0;
    }
    if (bc.plan.byzantineFaults.empty())
        r.dataOk = r.dataOk && r.detected == 0;
    r.pass = r.convictOk && r.ledgerOk && r.dataOk && !o.failedStop();
    return r;
}

std::vector<ByzOutcome>
runByzantine(const DesignSpec &spec, std::uint64_t seed)
{
    std::vector<ByzOutcome> out;
    for (const ByzCase &bc : byzCases(spec, seed)) {
        fault::FaultInjector inj(bc.plan);
        if (spec.protocol == Protocol::Independent) {
            sdimm::IndependentOram::Params p;
            p.perSdimm.levels = 6;
            p.perSdimm.stashCapacity = 200;
            p.numSdimms = kUnitsPerShard;
            sdimm::IndependentOram o(p, seed);
            o.setFaultInjector(&inj,
                               fault::DegradationPolicy::Degraded);
            out.push_back(driveByzCase(o, inj, bc, seed));
        } else {
            sdimm::IndepSplitOram::Params p;
            p.perGroupTree.levels = 6;
            p.perGroupTree.stashCapacity = 200;
            p.groups = kUnitsPerShard;
            p.slicesPerGroup = 2;
            sdimm::IndepSplitOram o(p, seed);
            o.setFaultInjector(&inj,
                               fault::DegradationPolicy::Degraded);
            out.push_back(driveByzCase(o, inj, bc, seed));
        }
    }
    return out;
}

/* ------------------------------------------------------------------ */
/* Phase B: post-chaos indistinguishability                            */
/* ------------------------------------------------------------------ */

/** A single-system twin of one unit-design shard: @p units SDIMMs
 *  (groups) of 6-level trees under the Degraded policy. */
core::SecureMemorySystem::Options
unitTwinOptions(const DesignSpec &spec, unsigned units,
                const fault::FaultPlan &plan, std::uint64_t seed)
{
    core::SecureMemorySystem::Options o;
    o.protocol = spec.protocol;
    o.capacityBytes = units * 128 * blockBytes;
    o.numSdimms = units;
    o.seed = seed;
    o.faultPlan = plan;
    o.degradationPolicy = fault::DegradationPolicy::Degraded;
    return o;
}

/** The Split twin: one 6-level tree under transient faults. */
core::SecureMemorySystem::Options
splitTwinOptions(std::uint64_t seed)
{
    core::SecureMemorySystem::Options o;
    o.protocol = Protocol::Split;
    o.capacityBytes = 128 * blockBytes;
    o.seed = seed;
    o.faultPlan = transientPlan(seed);
    return o;
}

/** Read @p accesses secret-drawn blocks; return the trace the
 *  system's observed channel shows, on a uniform clock so the timing
 *  statistics have a rhythm to compare. */
std::vector<verify::TraceEvent>
observedRun(const core::SecureMemorySystem::Options &o,
            std::uint64_t secret_seed, std::size_t accesses)
{
    core::SecureMemorySystem mem(o);
    verify::ChannelObserver obs;
    mem.attachObserver(obs);
    Rng rng(secret_seed);
    const std::uint64_t cap = mem.capacityBytes() / blockBytes;
    for (std::size_t i = 0; i < accesses; ++i)
        mem.readBlock(rng.nextBelow(cap));
    std::vector<verify::TraceEvent> t = obs.events();
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i].at = 10 * i;
    return t;
}

/** Locality-phased MI of one single-system twin. */
verify::LeakReport
observedMi(const DesignSpec &spec, const core::SecureMemorySystem::Options &o,
           const verify::PlbLeakOptions &opts)
{
    core::SecureMemorySystem mem(o);
    verify::ChannelObserver obs;
    mem.attachObserver(obs);
    return verify::measureObservedLocalityLeak(
        spec.name, mem.capacityBytes() / blockBytes, opts,
        [&](Addr a) { mem.readBlock(a); }, obs);
}

/** One single-system run with the (public) chaos plan armed; the
 *  secret is WHICH addresses the workload touches. */
std::vector<verify::TraceEvent>
deepRun(const DesignSpec &spec, std::uint64_t secret_seed,
        std::uint64_t plan_seed, std::size_t accesses)
{
    if (spec.unitDesign) {
        fault::FaultPlan plan = burstPlan(plan_seed);
        plan.correlatedFailures[0].atAccess = accesses / 4;
        return observedRun(
            unitTwinOptions(spec, kUnitsPerShard, plan, plan_seed),
            secret_seed, accesses);
    }
    if (spec.protocol == Protocol::Split)
        return observedRun(splitTwinOptions(plan_seed), secret_seed,
                           accesses);
    core::SecureMemorySystem::Options o;
    o.protocol = spec.protocol;
    o.capacityBytes = 1 << 18;
    o.seed = plan_seed;
    o.faultPlan = fault::FaultPlan::uniform(0.01, plan_seed);
    return observedRun(o, secret_seed, accesses);
}

/** One sharded run under the chaos plans; returns the interleaved
 *  completion schedule.  Each client's (shard, kind) sequence is
 *  public, drawn from @p campaign_seed; the secret is which half of
 *  the address space its blocks lie in. */
std::vector<verify::ScheduleEvent>
schedRun(const DesignSpec &spec, std::uint64_t campaign_seed,
         unsigned secret, std::uint64_t requests, unsigned threads,
         unsigned shards)
{
    verify::ScheduleRecorder rec;
    serve::ShardedSecureMemory mem(
        campaignOptions(spec, shards, campaign_seed));
    mem.setScheduleRecorder(&rec);
    // Both halves start on shard 0, so a block keeps its shard.
    const std::uint64_t half =
        mem.capacityBlocks() / 2 - mem.capacityBlocks() / 2 % shards;
    const std::uint64_t per_thread = (requests + threads - 1) / threads;
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(campaign_seed * 8191 + t);
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                const std::uint64_t block =
                    rng.nextBelow(half) + (secret ? half : 0);
                const bool write = rng.nextBelow(2) == 1;
                try {
                    if (write)
                        mem.writeBlock(block,
                                       stampBlock(block, campaign_seed));
                    else
                        mem.readBlock(block);
                } catch (const serve::ShardFailedError &) {
                    // Expected on the dead shard; keep the load up.
                }
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    mem.shutdown();
    return rec.events();
}

/** Units in an MI twin: kUnitsPerShard SDIMMs, but two groups for
 *  INDEP-SPLIT. */
unsigned
miUnits(const DesignSpec &spec)
{
    return spec.protocol == Protocol::Independent ? kUnitsPerShard : 2;
}

/** Locality-phased MI with chaos armed (the flat designs must still
 *  measure zero; Freecursive's PLB channel must still be caught). */
verify::LeakReport
measureChaosMi(const DesignSpec &spec, const verify::PlbLeakOptions &opts)
{
    if (spec.protocol == Protocol::PathOram)
        return verify::measurePlbLocalityLeak(verify::LeakDesign::PathOram,
                                              opts);
    if (spec.protocol == Protocol::Freecursive)
        return verify::measurePlbLocalityLeak(
            verify::LeakDesign::Freecursive, opts);
    if (!spec.unitDesign)
        return observedMi(spec, splitTwinOptions(opts.seed), opts);
    fault::FaultPlan plan =
        fault::FaultPlan::hardDeath(1, opts.requests / 4, opts.seed);
    plan.linkCorruptRate = 0.002;
    return observedMi(spec, unitTwinOptions(spec, miUnits(spec), plan,
                                            opts.seed),
                      opts);
}

struct PostChaosResult
{
    bool deepPass = false;
    bool schedPass = false;
    std::string schedSummary;
    verify::LeakReport mi;
    bool expectLeak = false;
    bool miOk = false;
    bool pass = false;
};

PostChaosResult
runPostChaos(const DesignSpec &spec, std::uint64_t seed,
             std::uint64_t requests, unsigned threads, unsigned shards,
             std::size_t mi_requests)
{
    PostChaosResult r;
    const std::size_t deep_accesses = 1500;
    const auto a =
        deepRun(spec, seed * 11 + 1, seed, deep_accesses);
    const auto b =
        deepRun(spec, seed * 13 + 7, seed, deep_accesses);
    r.deepPass = verify::deepCompareTraces(a, b).pass;

    // Every draw re-seeds the (public) campaign: engines and plans.
    const verify::CalibratedComparison sched = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            verify::Observation o;
            o.schedule = schedRun(spec, seed + 1000 * draw, secret,
                                  requests, threads, shards);
            return o;
        });
    r.schedPass = sched.pass;
    r.schedSummary = sched.summary();

    verify::PlbLeakOptions mi_opts;
    mi_opts.requests = mi_requests;
    mi_opts.seed = seed;
    r.mi = measureChaosMi(spec, mi_opts);
    r.expectLeak = spec.expectLeak;
    r.miOk = r.mi.mi.leakDetected() == r.expectLeak;

    r.pass = r.deepPass && r.schedPass && r.miOk;
    return r;
}

/* ------------------------------------------------------------------ */
/* Phase B2: post-conviction indistinguishability (unit designs)       */
/* ------------------------------------------------------------------ */

/** One single-system run with a persistent corruptor armed mid-run:
 *  the unit is convicted and obliviously evacuated, and the trace of
 *  two secret-differing runs must still deep-compare. */
std::vector<verify::TraceEvent>
deepRunByz(const DesignSpec &spec, std::uint64_t secret_seed,
           std::uint64_t plan_seed, std::size_t accesses)
{
    return observedRun(
        unitTwinOptions(spec, kUnitsPerShard,
                        fault::FaultPlan::byzantineCorruptor(
                            1, accesses / 4, plan_seed),
                        plan_seed),
        secret_seed, accesses);
}

/** Locality-phased MI with a conviction landing mid-measurement: the
 *  eviction storm is public (plan-determined), so MI must stay zero. */
verify::LeakReport
measureByzMi(const DesignSpec &spec, const verify::PlbLeakOptions &opts)
{
    return observedMi(spec,
                      unitTwinOptions(spec, miUnits(spec),
                                      fault::FaultPlan::byzantineCorruptor(
                                          1, opts.requests / 4, opts.seed),
                                      opts.seed),
                      opts);
}

struct PostByzResult
{
    bool deepPass = false;
    verify::LeakReport mi;
    bool miOk = false;
    bool pass = false;
};

PostByzResult
runPostByzantine(const DesignSpec &spec, std::uint64_t seed,
                 std::size_t mi_requests)
{
    PostByzResult r;
    const std::size_t deep_accesses = 1500;
    const auto a = deepRunByz(spec, seed * 11 + 1, seed, deep_accesses);
    const auto b = deepRunByz(spec, seed * 13 + 7, seed, deep_accesses);
    r.deepPass = verify::deepCompareTraces(a, b).pass;

    verify::PlbLeakOptions mi_opts;
    mi_opts.requests = mi_requests;
    mi_opts.seed = seed;
    r.mi = measureByzMi(spec, mi_opts);
    r.miOk = !r.mi.mi.leakDetected();
    r.pass = r.deepPass && r.miOk;
    return r;
}

/* ------------------------------------------------------------------ */
/* Phase C: KV application campaign                                    */
/* ------------------------------------------------------------------ */

/**
 * Chaos plans for the KV campaign: bursts, retirement, and (when
 * @p byzantine) a lying unit on the unit designs, recoverable
 * transients everywhere else -- but NO dead shard.  Every KV slot
 * spans all shards (blocks are consecutive, shard = block % N), so a
 * dead shard would fail every single op; the KV campaign instead
 * asserts that the store rides out everything the service survives.
 *
 * The byzantine plan is survival-only: burst/retire/transient trigger
 * at fixed access counts (public -- op counts match across secret
 * runs), but byzantine *detection* fires when a corrupted block is
 * actually read, i.e. at a secret-dependent time, so conviction and
 * evacuation traffic cannot be part of a schedule-comparison pair.
 */
std::vector<fault::FaultPlan>
kvPlans(const DesignSpec &spec, unsigned shards, std::uint64_t seed,
        bool byzantine)
{
    std::vector<fault::FaultPlan> plans;
    for (unsigned s = 0; s < shards; ++s) {
        const std::uint64_t shard_seed = seed * 1000003 + 100 + s;
        if (spec.unitDesign && s == 0 && byzantine)
            plans.push_back(
                fault::FaultPlan::byzantineCorruptor(1, 64, shard_seed));
        else if (spec.unitDesign && s == 1)
            plans.push_back(burstPlan(shard_seed));
        else if (spec.unitDesign && s == 2)
            plans.push_back(retirePlan(shard_seed));
        else
            plans.push_back(transientPlan(shard_seed));
    }
    return plans;
}

/** One KV run under the chaos plans; the secret is each client's
 *  zipfian op stream (keys, values, get/put mix). */
struct KvRun
{
    verify::Observation seen;
    bool rywOk = true;      ///< Every read saw the shadow-map value.
    bool integrityOk = false;
    bool healthOk = true;   ///< No shard failed (no dead plan armed).
    std::uint64_t ops = 0;
};

KvRun
kvChaosRun(const DesignSpec &spec, std::uint64_t plan_seed,
           std::uint64_t secret_seed, std::uint64_t ops_per_client,
           unsigned threads, unsigned shards, bool byzantine)
{
    KvRun r;
    app::ObliviousKVStore::Options opt;
    opt.serve.shard.protocol = spec.protocol;
    opt.serve.shard.numSdimms = spec.unitDesign ? kUnitsPerShard : 2;
    opt.serve.shard.stashCapacity = 200;
    opt.serve.shard.seed = plan_seed;
    opt.serve.shard.degradationPolicy =
        spec.unitDesign ? fault::DegradationPolicy::Degraded
                        : fault::DegradationPolicy::RetryThenStop;
    opt.serve.numShards = shards;
    opt.serve.queueCapacity = 128;
    opt.serve.maxBatch = 8;
    opt.capacityKeys = std::uint64_t(threads) * 24;
    opt.seed = plan_seed;
    opt.serve.shardFaultPlans =
        kvPlans(spec, shards, plan_seed, byzantine);
    // A quarter more slots than keys; the store lays slots out with a
    // stride of roundUp(B, shards) blocks.
    const std::uint64_t record =
        6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t stride = divCeil(bps, shards) * shards;
    const std::uint64_t slots =
        opt.capacityKeys + opt.capacityKeys / 4 + 4;
    opt.serve.shard.capacityBytes = slots * stride * blockBytes;
    app::ObliviousKVStore store(opt);

    // Per-shard traces are observed for the tree protocols only; the
    // SDIMM protocols are gated on the schedule alone.
    const bool tree = spec.protocol == Protocol::PathOram ||
                      spec.protocol == Protocol::Freecursive;
    std::vector<std::unique_ptr<verify::ChannelObserver>> observers;
    if (tree) {
        for (unsigned s = 0; s < shards; ++s) {
            observers.push_back(
                std::make_unique<verify::ChannelObserver>());
            store.service().attachObserver(s, *observers.back());
        }
    }

    auto spec_for = [&](unsigned client) {
        app::KvWorkloadSpec ws;
        ws.kind = app::KvWorkloadKind::Zipfian;
        ws.tenant = "kv" + std::to_string(client);
        ws.keys = 24;
        ws.getFraction = 0.6;
        ws.missFraction = 0.1;
        ws.valueBytes = 96;
        return ws;
    };
    // Preload the resident population; seed each client's shadow map
    // with it so the measured phase can check reads from op one.
    std::vector<std::unordered_map<std::string, std::string>> shadows(
        threads);
    for (unsigned c = 0; c < threads; ++c) {
        app::KvWorkloadGenerator gen(spec_for(c), secret_seed * 31 + c);
        for (const app::KvOp &op : gen.preload()) {
            store.put(op.key, op.value);
            shadows[c][op.key] = op.value;
        }
    }
    store.drain();
    for (auto &obs : observers)
        obs->clear();
    verify::ScheduleRecorder rec;
    store.service().setScheduleRecorder(&rec);

    std::atomic<bool> ryw_failed{false};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < threads; ++c) {
        clients.emplace_back([&, c] {
            app::KvWorkloadGenerator gen(spec_for(c),
                                         secret_seed * 137 + c);
            auto &shadow = shadows[c];
            for (std::uint64_t i = 0; i < ops_per_client; ++i) {
                const app::KvOp op = gen.next();
                if (op.put) {
                    store.put(op.key, op.value);
                    shadow[op.key] = op.value;
                } else {
                    const auto got = store.get(op.key);
                    const auto want = shadow.find(op.key);
                    const bool have = want != shadow.end();
                    if (got.has_value() != have ||
                        (have && *got != want->second))
                        ryw_failed.store(true);
                }
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    store.drain();
    store.service().setScheduleRecorder(nullptr);
    r.seen.schedule = rec.events();
    for (auto &obs : observers)
        r.seen.shardTraces.push_back(obs->events());
    r.ops = ops_per_client * threads;

    // Post-chaos read-your-writes sweep: after bursts, retirements,
    // and convictions, every surviving key still carries its last
    // written value (unrecorded -- shadow sizes differ per secret).
    for (unsigned c = 0; c < threads; ++c) {
        for (const auto &[key, value] : shadows[c]) {
            const auto got = store.get(key);
            if (!got.has_value() || *got != value)
                ryw_failed.store(true);
        }
    }
    r.rywOk = !ryw_failed.load();
    r.integrityOk = store.integrityOk();
    for (unsigned s = 0; s < shards; ++s)
        r.healthOk = r.healthOk && store.service().shardHealth(s) !=
                                       serve::ShardHealth::Failed;
    return r;
}

struct KvChaosOutcome
{
    std::uint64_t seed = 0;
    std::uint64_t ops = 0;
    bool rywOk = false;
    bool integrityOk = false;
    bool healthOk = false;
    bool schedPass = false;
    bool deepChecked = false;
    bool deepPass = true; ///< Vacuous for non-tree protocols.
    bool pass = false;
    std::string schedSummary;
};

KvChaosOutcome
runKvChaos(const DesignSpec &spec, std::uint64_t seed,
           std::uint64_t requests, unsigned threads, unsigned shards)
{
    KvChaosOutcome r;
    r.seed = seed;
    const std::uint64_t ops_per_client =
        std::max<std::uint64_t>(requests / (threads * 8), 48);

    // Indistinguishability: every draw re-seeds the (public)
    // count-triggered plans; the secret is the clients' op streams.
    r.rywOk = true;
    r.integrityOk = true;
    r.healthOk = true;
    const verify::CalibratedComparison cmp = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            KvRun run = kvChaosRun(spec, seed + 1000 * draw,
                                   secret ? seed * 29 + 7 : seed * 23 + 1,
                                   ops_per_client, threads, shards, false);
            r.ops += run.ops;
            r.rywOk = r.rywOk && run.rywOk;
            r.integrityOk = r.integrityOk && run.integrityOk;
            r.healthOk = r.healthOk && run.healthOk;
            r.deepChecked = !run.seen.shardTraces.empty();
            return std::move(run.seen);
        });
    r.schedPass = cmp.passes("schedule.");
    r.deepPass = cmp.passes("shard");
    r.schedSummary = cmp.summary();

    // Survival run with the byzantine corruptor armed (unit designs):
    // read-your-writes, integrity, and health must also hold through
    // conviction and evacuation.
    if (spec.unitDesign) {
        const KvRun s = kvChaosRun(spec, seed, seed * 41 + 3,
                                   ops_per_client, threads, shards,
                                   true);
        r.ops += s.ops;
        r.rywOk = r.rywOk && s.rywOk;
        r.integrityOk = r.integrityOk && s.integrityOk;
        r.healthOk = r.healthOk && s.healthOk;
    }
    r.pass = r.rywOk && r.integrityOk && r.healthOk && r.schedPass &&
             r.deepPass;
    return r;
}

/* ------------------------------------------------------------------ */
/* Reporting                                                           */
/* ------------------------------------------------------------------ */

const char *
boolJson(bool v)
{
    return v ? "true" : "false";
}

std::string
campaignJson(const CampaignResult &c)
{
    std::string j = "{\"seed\": " + std::to_string(c.seed) +
                    ", \"shards\": [";
    for (std::size_t s = 0; s < c.shards.size(); ++s) {
        const ShardOutcome &o = c.shards[s];
        j += s ? ", " : "";
        j += "{\"shard\": " + std::to_string(o.shard) +
             ", \"health\": \"" +
             serve::shardHealthName(o.health) +
             "\", \"errors\": " + std::to_string(o.errors) +
             ", \"detected\": " + std::to_string(o.detected) +
             ", \"recovered\": " + std::to_string(o.recovered) +
             ", \"unrecovered\": " + std::to_string(o.unrecovered) +
             ", \"nested_evacuations\": " +
             std::to_string(o.nestedEvacuations) +
             ", \"retired_units\": " + std::to_string(o.retiredUnits) +
             ", \"zero_survivor_failstops\": " +
             std::to_string(o.zeroSurvivorFailStops) +
             ", \"ledger_ok\": " + boolJson(o.ledgerOk) + "}";
    }
    j += "], \"verified_blocks\": " + std::to_string(c.verifiedBlocks) +
         ", \"skipped_dead_blocks\": " +
         std::to_string(c.skippedDeadBlocks) +
         ", \"corrupt_blocks\": " + std::to_string(c.corruptBlocks) +
         ", \"data_ok\": " + boolJson(c.dataOk) +
         ", \"typed_errors_ok\": " + boolJson(c.typedErrorsOk) +
         ", \"health_ok\": " + boolJson(c.healthOk) +
         ", \"ledger_ok\": " + boolJson(c.ledgerOk) +
         ", \"nested_ok\": " + boolJson(c.nestedOk) +
         ", \"retired_ok\": " + boolJson(c.retiredOk) +
         ", \"zero_survivor_ok\": " + boolJson(c.zeroSurvivorOk) +
         ", \"pass\": " + boolJson(c.pass) + "}";
    return j;
}

std::string
byzJson(const ByzOutcome &o)
{
    return "{\"case\": \"" + o.name +
           "\", \"accesses\": " + std::to_string(o.accesses) +
           ", \"convictions\": " + std::to_string(o.convictions) +
           ", \"detected\": " + std::to_string(o.detected) +
           ", \"recovered\": " + std::to_string(o.recovered) +
           ", \"unrecovered\": " + std::to_string(o.unrecovered) +
           ", \"lost_writes\": " + std::to_string(o.lostWrites) +
           ", \"corrupt_blocks\": " + std::to_string(o.corruptBlocks) +
           ", \"convict_ok\": " + boolJson(o.convictOk) +
           ", \"ledger_ok\": " + boolJson(o.ledgerOk) +
           ", \"data_ok\": " + boolJson(o.dataOk) +
           ", \"pass\": " + boolJson(o.pass) + "}";
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--design path|freecursive|independent|split|"
        "indepsplit|all]\n"
        "          [--seed S] [--seeds N] [--requests N] [--threads T]\n"
        "          [--shards N] [--mi-requests N] [--out FILE] "
        "[--check]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string design = "all";
    std::string out_path = "CHAOS_verdict.json";
    std::uint64_t seed = 1;
    unsigned seeds = 1;
    std::uint64_t requests = 2048;
    unsigned threads = 8;
    unsigned shards = 4;
    std::size_t mi_requests = 3000;
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--design") == 0 && has_value) {
            design = argv[++i];
        } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--seeds") == 0 && has_value) {
            seeds = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(arg, "--requests") == 0 && has_value) {
            requests = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--threads") == 0 && has_value) {
            threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(arg, "--shards") == 0 && has_value) {
            shards = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(arg, "--mi-requests") == 0 && has_value) {
            mi_requests = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--out") == 0 && has_value) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--check") == 0) {
            check = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (seeds == 0 || threads == 0 || shards < 2 || requests == 0) {
        usage(argv[0]);
        return 2;
    }

    bool all_pass = true;
    std::string designs_json;
    bool any = false;
    for (const DesignSpec &spec : kDesigns) {
        if (design != "all" && design != spec.cli)
            continue;
        any = true;

        std::string campaigns_json;
        bool design_pass = true;
        for (unsigned k = 0; k < seeds; ++k) {
            const CampaignResult c =
                runCampaign(spec, seed + k, requests, threads, shards);
            std::printf(
                "%-12s seed=%llu campaign %s  (data=%s typed=%s "
                "health=%s ledger=%s nested=%s retired=%s zsurv=%s)\n",
                spec.name,
                static_cast<unsigned long long>(c.seed),
                c.pass ? "PASS" : "FAIL", boolJson(c.dataOk),
                boolJson(c.typedErrorsOk), boolJson(c.healthOk),
                boolJson(c.ledgerOk), boolJson(c.nestedOk),
                boolJson(c.retiredOk), boolJson(c.zeroSurvivorOk));
            campaigns_json += campaigns_json.empty() ? "" : ",\n        ";
            campaigns_json += campaignJson(c);
            design_pass = design_pass && c.pass;
        }

        // Byzantine campaigns + post-conviction gates (unit designs:
        // only Independent/IndepSplit have convictable units).
        std::string byz_json;
        std::string post_byz_json;
        if (spec.unitDesign) {
            for (unsigned k = 0; k < seeds; ++k) {
                for (const ByzOutcome &o :
                     runByzantine(spec, seed + k)) {
                    std::printf(
                        "%-12s seed=%llu byz:%-18s %s  (convict=%s "
                        "ledger=%s data=%s)\n",
                        spec.name,
                        static_cast<unsigned long long>(seed + k),
                        o.name.c_str(), o.pass ? "PASS" : "FAIL",
                        boolJson(o.convictOk), boolJson(o.ledgerOk),
                        boolJson(o.dataOk));
                    byz_json += byz_json.empty() ? "" : ",\n        ";
                    byz_json += byzJson(o);
                    design_pass = design_pass && o.pass;
                }
            }
            const PostByzResult pb =
                runPostByzantine(spec, seed, mi_requests);
            std::printf(
                "%-12s post-byzantine %s  (deep=%s mi=%s; %s)\n",
                spec.name, pb.pass ? "PASS" : "FAIL",
                boolJson(pb.deepPass), boolJson(pb.miOk),
                pb.mi.mi.summary().c_str());
            design_pass = design_pass && pb.pass;
            post_byz_json =
                ",\n      \"post_byzantine\": {\"deep_pass\": " +
                std::string(boolJson(pb.deepPass)) +
                ", \"mi_ok\": " + boolJson(pb.miOk) +
                ", \"mi\": " + pb.mi.toJson() + "}";
        }

        const PostChaosResult pc = runPostChaos(
            spec, seed, requests, threads, shards, mi_requests);
        std::printf("%-12s post-chaos %s  (deep=%s sched=%s mi=%s; %s)\n",
                    spec.name, pc.pass ? "PASS" : "FAIL",
                    boolJson(pc.deepPass), boolJson(pc.schedPass),
                    boolJson(pc.miOk), pc.mi.mi.summary().c_str());
        if (!pc.schedPass)
            std::printf("%-12s post-chaos %s\n", spec.name,
                        pc.schedSummary.c_str());
        design_pass = design_pass && pc.pass;

        const KvChaosOutcome kv =
            runKvChaos(spec, seed, requests, threads, shards);
        std::printf("%-12s kv-campaign %s  (ryw=%s integrity=%s "
                    "health=%s sched=%s deep=%s ops=%llu)\n",
                    spec.name, kv.pass ? "PASS" : "FAIL",
                    boolJson(kv.rywOk), boolJson(kv.integrityOk),
                    boolJson(kv.healthOk), boolJson(kv.schedPass),
                    kv.deepChecked ? boolJson(kv.deepPass) : "\"n/a\"",
                    static_cast<unsigned long long>(kv.ops));
        if (!kv.schedPass || !kv.deepPass)
            std::printf("%-12s kv-campaign %s\n", spec.name,
                        kv.schedSummary.c_str());
        design_pass = design_pass && kv.pass;
        all_pass = all_pass && design_pass;

        std::string plans_json;
        for (const fault::FaultPlan &p :
             campaignPlans(spec, shards, seed)) {
            plans_json += plans_json.empty() ? "" : ",\n        ";
            plans_json += fault::faultPlanToJson(p);
        }

        designs_json += designs_json.empty() ? "\n    " : ",\n    ";
        designs_json +=
            "{\"design\": \"" + std::string(spec.name) +
            "\",\n      \"plans\": [" + plans_json +
            "],\n      \"campaigns\": [" + campaigns_json +
            "],\n      \"byzantine\": [" + byz_json + "]" +
            post_byz_json +
            ",\n      \"post_chaos\": {\"deep_pass\": " +
            boolJson(pc.deepPass) +
            ", \"sched_pass\": " + boolJson(pc.schedPass) +
            ", \"expect_leak\": " + boolJson(pc.expectLeak) +
            ", \"mi_ok\": " + boolJson(pc.miOk) +
            ", \"mi\": " + pc.mi.toJson() +
            "},\n      \"kv\": {\"ops\": " + std::to_string(kv.ops) +
            ", \"ryw_ok\": " + boolJson(kv.rywOk) +
            ", \"integrity_ok\": " + boolJson(kv.integrityOk) +
            ", \"health_ok\": " + boolJson(kv.healthOk) +
            ", \"sched_pass\": " + boolJson(kv.schedPass) +
            ", \"deep_checked\": " + boolJson(kv.deepChecked) +
            ", \"deep_pass\": " + boolJson(kv.deepPass) +
            ", \"pass\": " + boolJson(kv.pass) +
            "},\n      \"pass\": " + boolJson(design_pass) + "}";
    }
    if (!any) {
        usage(argv[0]);
        return 2;
    }

    const std::string json =
        "{\n  \"tool\": \"sdimm_chaos\",\n"
        "  \"schema\": \"secdimm-chaos-v3\",\n"
        "  \"seed\": " + std::to_string(seed) +
        ",\n  \"seeds\": " + std::to_string(seeds) +
        ",\n  \"requests\": " + std::to_string(requests) +
        ",\n  \"threads\": " + std::to_string(threads) +
        ",\n  \"shards\": " + std::to_string(shards) +
        ",\n  \"designs\": [" + designs_json +
        "\n  ],\n  \"pass\": " + boolJson(all_pass) + "\n}\n";

    std::ofstream f(out_path);
    if (f) {
        f << json;
        std::printf("verdict written to %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }

    if (!check)
        return 0;
    if (!all_pass)
        std::fprintf(stderr, "CHECK FAILED: see %s\n", out_path.c_str());
    return all_pass ? 0 : 1;
}

/**
 * @file
 * Concurrency-sound obliviousness of the sharded serve frontend.  The
 * adversary sees every shard's channel trace and the completion-order
 * schedule (verify::ScheduleRecorder via
 * ShardedSecureMemory::setScheduleRecorder); under randomized
 * submission orders and engine seeds, both must be indistinguishable
 * between two workloads that differ only in WHICH blocks they touch.
 * verify::compareCalibrated judges that against the variation honest
 * runs of one secret show, and catches a frontend that reorders each
 * shard's queue writes-first, which the marginal view cannot.
 *
 * Workload construction: A and B draw the SAME per-request (shard,
 * kind) sequence from a shared seed but place their blocks in
 * disjoint halves of the address space, so the secret is the region
 * while every per-shard request count matches by construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <vector>

#include "serve/sharded_memory.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_checker.hh"

namespace secdimm::serve
{
namespace
{

using Protocol = core::SecureMemorySystem::Protocol;

ShardedSecureMemory::Options
serveOptions(Protocol proto, unsigned shards)
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = proto;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = 7;
    opt.numShards = shards;
    opt.queueCapacity = 64;
    opt.maxBatch = 4;
    return opt;
}

/** One request of the shared (public) workload skeleton. */
struct Op
{
    Addr base = 0; ///< Block index inside the half-region.
    bool write = false;
};

std::vector<Op>
workloadSkeleton(std::uint64_t seed, std::size_t n, Addr region_blocks,
                 double write_prob = 0.25)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ops.push_back(
            Op{rng.nextBelow(region_blocks), rng.nextBool(write_prob)});
    return ops;
}

/**
 * Drive one service instance: submit the skeleton (offset into one
 * half-region) in the order given by @p submit_order, fully async, and
 * collect per-shard traces plus the interleaved completion schedule.
 */
verify::Observation
runWorkload(const ShardedSecureMemory::Options &opt,
            const std::vector<Op> &ops, Addr region_offset,
            const std::vector<std::size_t> &submit_order)
{
    ShardedSecureMemory mem(opt);
    std::vector<std::unique_ptr<verify::ChannelObserver>> observers;
    for (unsigned s = 0; s < mem.numShards(); ++s) {
        observers.push_back(std::make_unique<verify::ChannelObserver>());
        EXPECT_GT(mem.attachObserver(s, *observers.back()), 0u);
    }
    verify::ScheduleRecorder recorder;
    mem.setScheduleRecorder(&recorder);

    BlockData d{};
    d[0] = 0x5a;
    std::vector<std::future<BlockData>> reads;
    std::vector<std::future<BlockData>> writes;
    for (std::size_t idx : submit_order) {
        const Addr block = region_offset + ops[idx].base;
        if (ops[idx].write)
            writes.push_back(mem.submitWrite(block, d));
        else
            reads.push_back(mem.submitRead(block));
    }
    for (auto &f : writes)
        f.get();
    for (auto &f : reads)
        f.get();
    mem.drain();
    mem.setScheduleRecorder(nullptr);
    mem.shutdown();

    verify::Observation r;
    for (auto &obs : observers)
        r.shardTraces.push_back(obs->events());
    r.schedule = recorder.events();
    return r;
}

std::vector<std::size_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

/**
 * @p order with each shard's subsequence re-emitted writes-first:
 * every position keeps its shard, only which request of that shard
 * fills it changes.
 */
std::vector<std::size_t>
writesFirstOrder(const ShardedSecureMemory &probe,
                 const std::vector<Op> &ops,
                 const std::vector<std::size_t> &order)
{
    std::vector<std::vector<std::size_t>> per_shard(probe.numShards());
    for (std::size_t idx : order)
        per_shard[probe.shardOf(ops[idx].base)].push_back(idx);
    for (auto &list : per_shard)
        std::stable_partition(list.begin(), list.end(),
                              [&](std::size_t i) { return ops[i].write; });
    std::vector<std::size_t> next(probe.numShards(), 0);
    std::vector<std::size_t> out;
    out.reserve(order.size());
    for (std::size_t idx : order) {
        const unsigned s = probe.shardOf(ops[idx].base);
        out.push_back(per_shard[s][next[s]++]);
    }
    return out;
}

/** Offset of the B half-region, aligned so shardOf() is preserved. */
Addr
alignedHalf(const ShardedSecureMemory::Options &opt)
{
    ShardedSecureMemory probe(opt);
    const Addr half = probe.capacityBlocks() / 2;
    return half - half % probe.numShards();
}

TEST(ConcurrentObliviousness, AllSecureDesignsUnderRandomSchedules)
{
    // Every draw re-randomizes the submission order and the engine
    // seed; every shard's trace and the interleaved completion
    // schedule must stay indistinguishable between the two
    // half-region workloads, judged against the spread of honest runs.
    for (Protocol proto :
         {Protocol::PathOram, Protocol::Freecursive,
          Protocol::Independent, Protocol::Split,
          Protocol::IndepSplit}) {
        SCOPED_TRACE("proto=" +
                     std::to_string(static_cast<int>(proto)));
        const ShardedSecureMemory::Options opt = serveOptions(proto, 2);
        const Addr offset = alignedHalf(opt);
        ASSERT_GT(offset, 0u);
        const std::vector<Op> ops = workloadSkeleton(101, 600, offset);

        const verify::CalibratedComparison c = verify::compareCalibrated(
            [&](unsigned secret, std::uint64_t draw) {
                ShardedSecureMemory::Options o = opt;
                o.shard.seed += draw;
                verify::Observation r = runWorkload(
                    o, ops, secret ? offset : 0,
                    shuffledOrder(ops.size(),
                                  (secret ? 500 : 900) + draw));
                EXPECT_EQ(r.shardTraces.size(), opt.numShards);
                EXPECT_EQ(r.schedule.size(), ops.size());
                return r;
            });
        EXPECT_TRUE(c.pass) << c.summary();
    }
}

TEST(ConcurrentObliviousness, PerShardTracesSurviveDeepChecks)
{
    // The v2 statistics themselves (ordering ACF; gap stats are
    // vacuous on untimed store traces) must also pass shard-by-shard.
    const ShardedSecureMemory::Options opt =
        serveOptions(Protocol::PathOram, 4);
    const Addr offset = alignedHalf(opt);
    const std::vector<Op> ops = workloadSkeleton(202, 1200, offset);
    const verify::Observation a =
        runWorkload(opt, ops, 0, shuffledOrder(ops.size(), 11));
    const verify::Observation b =
        runWorkload(opt, ops, offset, shuffledOrder(ops.size(), 12));
    for (std::size_t s = 0; s < a.shardTraces.size(); ++s) {
        const verify::DeepComparison d = verify::deepCompareTraces(
            a.shardTraces[s], b.shardTraces[s]);
        EXPECT_TRUE(d.pass) << "shard " << s << ": " << d.summary();
    }
}

TEST(ConcurrentObliviousness, WithinShardKindSortingIsCaught)
{
    // Positive control: a frontend that reorders each shard's queue
    // by a secret-correlated criterion -- here, all writes before all
    // reads.  The global position of every request (and thus the
    // scheduler-noise interleaving, shard occupancy, and kind mix) is
    // untouched, so the marginal view is IDENTICAL; only the
    // shard-local FIFO-order statistic can flag it.  Built on the
    // per-shard subsequence precisely so the check stays sound on a
    // single-core host, where worker preemption makes the GLOBAL
    // completion order blocky for honest and leaky runs alike.
    const ShardedSecureMemory::Options opt =
        serveOptions(Protocol::PathOram, 4);
    const Addr offset = alignedHalf(opt);
    const std::vector<Op> ops =
        workloadSkeleton(303, 600, offset, 0.5);

    const ShardedSecureMemory probe(opt);
    const std::vector<std::size_t> honest_order =
        shuffledOrder(ops.size(), 21);
    const std::vector<std::size_t> leaky_order =
        writesFirstOrder(probe, ops, honest_order);
    const verify::Observation leaky =
        runWorkload(opt, ops, 0, leaky_order);
    const verify::Observation honest =
        runWorkload(opt, ops, offset, honest_order);

    const verify::ScheduleComparison sc =
        verify::compareSchedules(leaky.schedule, honest.schedule);
    EXPECT_TRUE(sc.marginal.indistinguishable)
        << "control must preserve the marginal view: "
        << sc.marginal.summary();
    EXPECT_FALSE(sc.pass) << sc.summary();
    EXPECT_FALSE(sc.perShardPass) << sc.summary();

    // The calibrated gate over R shuffles of each side: writes-first
    // orders against honest ones.
    const verify::CalibratedComparison c = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            ShardedSecureMemory::Options o = opt;
            o.shard.seed += draw;
            const std::vector<std::size_t> order =
                shuffledOrder(ops.size(), 21 + draw);
            return secret ? runWorkload(o, ops, offset, order)
                          : runWorkload(o, ops, 0,
                                        writesFirstOrder(probe, ops,
                                                         order));
        });
    EXPECT_FALSE(c.pass) << c.summary();
    EXPECT_FALSE(c.passes("schedule.shard_kind_acf")) << c.summary();
}

TEST(ConcurrentObliviousness, RecorderDetachStopsRecording)
{
    ShardedSecureMemory mem(serveOptions(Protocol::PathOram, 2));
    verify::ScheduleRecorder rec;
    mem.setScheduleRecorder(&rec);
    mem.readBlock(0);
    mem.drain();
    const std::size_t seen = rec.size();
    EXPECT_GT(seen, 0u);
    mem.setScheduleRecorder(nullptr);
    mem.readBlock(1);
    mem.drain();
    EXPECT_EQ(rec.size(), seen);
    const auto ev = rec.events();
    EXPECT_EQ(ev.front().shard, 0u);
    EXPECT_FALSE(ev.front().write);
}

} // namespace
} // namespace secdimm::serve

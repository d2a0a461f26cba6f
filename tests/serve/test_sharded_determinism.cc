/**
 * @file
 * The sharded service's two correctness-of-schedule contracts:
 *
 *  1. Per-shard determinism: with fixed seeds, each shard's
 *     externally visible command schedule is bit-identical to a
 *     single-threaded SecureMemorySystem given the same per-shard
 *     request subsequence -- thread interleaving between shards
 *     cannot perturb any one shard's schedule.
 *
 *  2. Shard-local obliviousness: each shard's visible trace does not
 *     betray which of two workloads with identical structure but
 *     disjoint addresses ran (the calibrated gate over every shard,
 *     with every level in DRAM and on the served, cached view).
 */

#include <gtest/gtest.h>

#include <vector>

#include "oram/path_oram.hh"
#include "serve/sharded_memory.hh"
#include "util/bit_utils.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"

namespace secdimm::serve
{
namespace
{

using verify::ChannelObserver;
using verify::TraceEvent;

constexpr unsigned kShards = 2;

ShardedSecureMemory::Options
pathOramOptions()
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::PathOram;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = 33;
    opt.numShards = kShards;
    opt.queueCapacity = 8;
    opt.maxBatch = 4;
    return opt;
}

struct Op
{
    Addr block;
    bool write;
    BlockData data;
};

/** Reproducible op sequence over [base, base + region) blocks. */
std::vector<Op>
makeOps(std::uint64_t structure_seed, std::uint64_t base,
        std::uint64_t region, std::size_t count)
{
    Rng rng(structure_seed);
    std::vector<Op> ops;
    std::vector<std::uint64_t> pool;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t idx;
        if (!pool.empty() && rng.nextBool(0.3)) {
            idx = pool[rng.nextBelow(pool.size())];
        } else {
            idx = rng.nextBelow(region);
            pool.push_back(idx);
        }
        Op op;
        op.block = base + idx;
        op.write = rng.nextBool(0.5);
        op.data = BlockData{};
        op.data[0] = static_cast<std::uint8_t>(i);
        ops.push_back(op);
    }
    return ops;
}

bool
sameTrace(const std::vector<TraceEvent> &a,
          const std::vector<TraceEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].addr != b[i].addr ||
            a[i].at != b[i].at)
            return false;
    }
    return true;
}

TEST(ShardedDeterminism, PerShardScheduleMatchesSingleThreadedBaseline)
{
    const ShardedSecureMemory::Options opt = pathOramOptions();
    const auto ops = makeOps(42, 0, 128, 200);

    // Sharded run, one observer per shard.
    std::vector<ChannelObserver> sharded_obs(kShards);
    {
        ShardedSecureMemory mem(opt);
        for (unsigned s = 0; s < kShards; ++s)
            ASSERT_GT(mem.attachObserver(s, sharded_obs[s]), 0u);
        for (const Op &op : ops) {
            if (op.write)
                mem.writeBlock(op.block, op.data);
            else
                mem.readBlock(op.block);
        }
        mem.shutdown();
    }

    // Single-threaded baseline: the identical per-shard options, fed
    // the identical per-shard request subsequence.
    for (unsigned s = 0; s < kShards; ++s) {
        core::SecureMemorySystem solo(
            ShardedSecureMemory::shardOptions(opt, s));
        ChannelObserver solo_obs;
        ASSERT_GT(solo.attachObserver(solo_obs), 0u);
        for (const Op &op : ops) {
            if (op.block % kShards != s)
                continue;
            if (op.write)
                solo.writeBlock(op.block / kShards, op.data);
            else
                solo.readBlock(op.block / kShards);
        }
        EXPECT_FALSE(sharded_obs[s].events().empty());
        EXPECT_TRUE(sameTrace(sharded_obs[s].events(),
                              solo_obs.events()))
            << "shard " << s
            << " schedule diverged from the single-threaded baseline "
            << "(" << sharded_obs[s].events().size() << " vs "
            << solo_obs.events().size() << " events)";
    }
}

TEST(ShardedDeterminism, RepeatedRunsAreByteIdentical)
{
    const auto run = [] {
        const ShardedSecureMemory::Options opt = pathOramOptions();
        ShardedSecureMemory mem(opt);
        const auto ops = makeOps(7, 0, 128, 150);
        std::string reads;
        for (const Op &op : ops) {
            if (op.write)
                mem.writeBlock(op.block, op.data);
            else
                reads.push_back(
                    static_cast<char>(mem.readBlock(op.block)[0]));
        }
        std::vector<std::string> shard_json;
        for (unsigned s = 0; s < kShards; ++s)
            shard_json.push_back(mem.shardMetrics(s).toJson());
        return std::make_pair(reads, shard_json);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    // Per-shard protocol metrics (leaf draws, stash peaks, bucket
    // traffic) are reproducible run to run; the serve.* timing
    // counters are deliberately excluded -- wall clock is not part of
    // the determinism contract.
    EXPECT_EQ(a.second, b.second);
}

/** The half of the block space at @p base that shardTraces drives. */
std::vector<Op>
halfOps(std::uint64_t base)
{
    // Same structure, disjoint halves of the block space.
    return makeOps(42, base, 128, 512);
}

/**
 * Each shard's visible trace for halfOps(@p base) on a service seeded
 * @p service_seed, as ShardedSecureMemory serves it (the PathOram
 * shards keep their top levels in trusted memory).
 */
std::vector<std::vector<TraceEvent>>
shardTraces(std::uint64_t service_seed, std::uint64_t base)
{
    ShardedSecureMemory::Options opt = pathOramOptions();
    opt.shard.seed = service_seed;
    ShardedSecureMemory mem(opt);
    std::vector<ChannelObserver> obs(kShards);
    for (unsigned s = 0; s < kShards; ++s)
        EXPECT_GT(mem.attachObserver(s, obs[s]), 0u);
    for (const Op &op : halfOps(base)) {
        if (op.write)
            mem.writeBlock(op.block, op.data);
        else
            mem.readBlock(op.block);
    }
    mem.shutdown();
    std::vector<std::vector<TraceEvent>> out;
    for (auto &o : obs)
        out.push_back(o.events());
    return out;
}

/**
 * shardTraces with every level in DRAM: each shard is a bare
 * oram::PathOram with no cached levels, as deep and seeded as the
 * service's shard (ShardedSecureMemory::shardOptions), fed the
 * shard's own request subsequence.
 * PerShardScheduleMatchesSingleThreadedBaseline shows the service
 * puts exactly that subsequence's schedule on each shard's channel.
 */
std::vector<std::vector<TraceEvent>>
everyLevelShardTraces(std::uint64_t service_seed, std::uint64_t base)
{
    ShardedSecureMemory::Options opt = pathOramOptions();
    opt.shard.seed = service_seed;
    const std::vector<Op> ops = halfOps(base);
    std::vector<std::vector<TraceEvent>> out;
    for (unsigned s = 0; s < kShards; ++s) {
        const core::SecureMemorySystem::Options so =
            ShardedSecureMemory::shardOptions(opt, s);
        oram::OramParams params;
        params.levels = oram::levelsForCapacity(
            divCeil(so.capacityBytes, blockBytes), params.bucketBlocks);
        params.stashCapacity = so.stashCapacity;
        oram::PathOram o(params, crypto::makeKey(0xdeed, so.seed),
                         crypto::makeKey(0xfeed, so.seed * 3 + 1),
                         so.seed);
        ChannelObserver obs;
        EXPECT_GT(obs.attach(o), 0u);
        for (const Op &op : ops) {
            if (op.block % kShards != s)
                continue;
            if (op.write)
                o.access(op.block / kShards, oram::OramOp::Write, &op.data);
            else
                o.access(op.block / kShards, oram::OramOp::Read);
        }
        out.push_back(obs.events());
    }
    return out;
}

TEST(ShardedDeterminism, ObliviousnessIsShardLocal)
{
    // Every level in DRAM: the whole path is on each shard's channel.
    const verify::CalibratedComparison c = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            verify::Observation o;
            o.shardTraces = everyLevelShardTraces(
                100 + draw, secret ? 128 * kShards : 0);
            for (const auto &t : o.shardTraces)
                EXPECT_FALSE(t.empty());
            return o;
        });
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(ShardedDeterminism, ServedViewObliviousnessIsShardLocal)
{
    // The service's shards keep the top levels in trusted memory, so
    // each channel shows only the lower levels.
    const verify::CalibratedComparison c = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            verify::Observation o;
            o.shardTraces =
                shardTraces(100 + draw, secret ? 128 * kShards : 0);
            EXPECT_EQ(o.shardTraces.size(), kShards);
            return o;
        });
    EXPECT_TRUE(c.pass) << c.summary();
}

} // namespace
} // namespace secdimm::serve

/**
 * @file
 * Shard-level graceful degradation: a shard whose SecureMemorySystem
 * reaches FailStop must keep draining its queue while every affected
 * request resolves with the typed serve::ShardFailedError -- no hang,
 * no fabricated zeros, no collateral damage to the other shards --
 * and the serve.shard_health gauges must say what happened.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "serve/sharded_memory.hh"

namespace secdimm::serve
{
namespace
{

BlockData
stamp(std::uint64_t tag)
{
    BlockData d{};
    for (std::size_t i = 0; i < 8; ++i)
        d[i] = static_cast<std::uint8_t>(tag >> (8 * i));
    d[63] = 0xee;
    return d;
}

/** Saturating unrecoverable transients: the first fault kills the
 *  shard (no retry budget). */
fault::FaultPlan
lethalPlan(std::uint64_t seed)
{
    fault::FaultPlan p = fault::FaultPlan::uniform(0.5, seed);
    p.maxRetries = 0;
    return p;
}

/** Two shards; shard 1 runs the lethal plan, shard 0 runs clean. */
ShardedSecureMemory::Options
halfDeadOptions(std::uint64_t seed)
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::PathOram;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = seed;
    opt.numShards = 2;
    opt.queueCapacity = 16;
    opt.maxBatch = 4;
    opt.shardFaultPlans = {fault::FaultPlan::none(), lethalPlan(seed)};
    return opt;
}

TEST(ShardFailure, DeadShardResolvesTypedErrorsAndDrains)
{
    ShardedSecureMemory mem(halfDeadOptions(5));

    // Interleave both shards; every shard-1 future must resolve (not
    // hang) and, once the shard is dead, resolve ShardFailedError.
    std::vector<std::future<BlockData>> live, dead;
    for (std::uint64_t i = 0; i < 64; ++i) {
        live.push_back(mem.submitWrite(2 * i, stamp(i)));     // shard 0
        dead.push_back(mem.submitWrite(2 * i + 1, stamp(i))); // shard 1
    }
    for (auto &f : live)
        EXPECT_NO_THROW(f.get());
    unsigned typed = 0;
    for (auto &f : dead) {
        try {
            f.get();
        } catch (const ShardFailedError &e) {
            EXPECT_EQ(e.shard(), 1u);
            ++typed;
        }
    }
    EXPECT_GT(typed, 0u) << "the lethal plan never fired";

    // The queue drained and the service is still live for shard 0.
    mem.drain();
    EXPECT_EQ(mem.shardHealth(0), ShardHealth::Healthy);
    EXPECT_EQ(mem.shardHealth(1), ShardHealth::Failed);
    EXPECT_EQ(mem.readBlock(0), stamp(0));
}

TEST(ShardFailure, GroupSpanningDeadShardResolvesTyped)
{
    ShardedSecureMemory mem(halfDeadOptions(5));
    // Each group spans both shards; once shard 1 is dead, every
    // group resolves with its typed error -- never hangs -- and a
    // group on shard 0 alone still succeeds.
    unsigned typed = 0;
    for (std::uint64_t round = 0; round < 16; ++round) {
        std::vector<BlockRequest> reqs;
        for (std::uint64_t i = 0; i < 8; ++i)
            reqs.push_back({i, true, stamp(round * 8 + i)});
        try {
            mem.submitGroup(reqs)->wait();
        } catch (const ShardFailedError &e) {
            EXPECT_EQ(e.shard(), 1u);
            ++typed;
        }
    }
    EXPECT_GT(typed, 0u) << "the lethal plan never fired";
    ASSERT_EQ(mem.shardHealth(1), ShardHealth::Failed);
    std::vector<BlockRequest> live = {{0, false, std::nullopt},
                                      {2, false, std::nullopt}};
    const std::vector<BlockData> got = mem.submitGroup(live)->wait();
    EXPECT_EQ(got[0], stamp(15 * 8 + 0));
    EXPECT_EQ(got[1], stamp(15 * 8 + 2));
}

TEST(ShardFailure, SyncFacadeRethrowsShardFailed)
{
    ShardedSecureMemory mem(halfDeadOptions(9));
    // Kill shard 1 with traffic, then hit it synchronously.
    for (std::uint64_t i = 0; i < 32; ++i) {
        try {
            mem.writeBlock(2 * i + 1, stamp(i));
        } catch (const ShardFailedError &) {
        }
    }
    ASSERT_EQ(mem.shardHealth(1), ShardHealth::Failed);
    EXPECT_THROW(mem.readBlock(1), ShardFailedError);
    EXPECT_THROW(mem.writeBlock(3, stamp(3)), ShardFailedError);
    // Shard 0 is untouched.
    EXPECT_NO_THROW(mem.writeBlock(0, stamp(0)));
    EXPECT_EQ(mem.readBlock(0), stamp(0));
}

TEST(ShardFailure, HealthGaugesCountTheDead)
{
    ShardedSecureMemory mem(halfDeadOptions(13));
    for (std::uint64_t i = 0; i < 32; ++i) {
        try {
            mem.writeBlock(i, stamp(i));
        } catch (const ShardFailedError &) {
        }
    }
    util::MetricsRegistry m = mem.metrics();
    EXPECT_EQ(m.gauge("serve.s0.health"),
              static_cast<double>(ShardHealth::Healthy));
    EXPECT_EQ(m.gauge("serve.s1.health"),
              static_cast<double>(ShardHealth::Failed));
    EXPECT_EQ(m.gauge("serve.shard_health.healthy"), 1.0);
    EXPECT_EQ(m.gauge("serve.shard_health.degraded"), 0.0);
    EXPECT_EQ(m.gauge("serve.shard_health.failed"), 1.0);
}

TEST(ShardFailure, ZeroSurvivorBurstFailsOneShardGracefully)
{
    // A unit-design shard whose every SDIMM dies in one correlated
    // burst: the zero-survivor fail-stop must surface as the same
    // typed per-request error, with the distinct ledger entry visible
    // in the shard's metrics.
    ShardedSecureMemory::Options opt;
    opt.shard.protocol =
        core::SecureMemorySystem::Protocol::Independent;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.numSdimms = 4;
    opt.shard.seed = 21;
    opt.shard.degradationPolicy = fault::DegradationPolicy::Degraded;
    opt.numShards = 2;
    opt.shardFaultPlans = {
        fault::FaultPlan::none(),
        fault::FaultPlan::correlatedDeath({0, 1, 2, 3}, 8, 0, 21)};
    ShardedSecureMemory mem(opt);

    unsigned typed = 0;
    for (std::uint64_t i = 0; i < 48; ++i) {
        try {
            mem.writeBlock(2 * i + 1, stamp(i)); // shard 1
        } catch (const ShardFailedError &e) {
            EXPECT_EQ(e.shard(), 1u);
            ++typed;
        }
    }
    EXPECT_GT(typed, 0u);
    EXPECT_EQ(mem.shardHealth(1), ShardHealth::Failed);
    EXPECT_EQ(mem.shardHealth(0), ShardHealth::Healthy);

    util::MetricsRegistry m = mem.shardMetrics(1);
    EXPECT_EQ(m.counter("fault.zero_survivor_failstops"), 1u);
    EXPECT_EQ(m.counter("fault.detected.total"),
              m.counter("fault.recovered.total") +
                  m.counter("fault.unrecovered.total"));

    // Shard 0 still serves reads and writes.
    EXPECT_NO_THROW(mem.writeBlock(0, stamp(0)));
    EXPECT_EQ(mem.readBlock(0), stamp(0));
}

TEST(ShardFailure, DegradedShardReportsDegradedHealth)
{
    // A survivable correlated burst (2 of 4 units) leaves the shard
    // serving but Degraded.
    ShardedSecureMemory::Options opt;
    opt.shard.protocol =
        core::SecureMemorySystem::Protocol::Independent;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.numSdimms = 4;
    opt.shard.seed = 33;
    opt.shard.degradationPolicy = fault::DegradationPolicy::Degraded;
    opt.numShards = 2;
    opt.shardFaultPlans = {
        fault::FaultPlan::none(),
        fault::FaultPlan::correlatedDeath({1, 2}, 8, 0, 33)};
    ShardedSecureMemory mem(opt);

    for (std::uint64_t i = 0; i < 48; ++i)
        mem.writeBlock(2 * i + 1, stamp(i)); // shard 1, survives.
    mem.drain();
    EXPECT_EQ(mem.shardHealth(1), ShardHealth::Degraded);
    for (std::uint64_t i = 0; i < 48; ++i)
        EXPECT_EQ(mem.readBlock(2 * i + 1), stamp(i));

    util::MetricsRegistry m = mem.metrics();
    EXPECT_EQ(m.gauge("serve.shard_health.degraded"), 1.0);
    EXPECT_EQ(m.gauge("serve.shard_health.failed"), 0.0);
}

TEST(ShardFailure, ShardHealthNamesAreStable)
{
    EXPECT_STREQ(shardHealthName(ShardHealth::Healthy), "healthy");
    EXPECT_STREQ(shardHealthName(ShardHealth::Degraded), "degraded");
    EXPECT_STREQ(shardHealthName(ShardHealth::Failed), "failed");
}

} // namespace
} // namespace secdimm::serve

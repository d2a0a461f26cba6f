/**
 * @file
 * Async batching under transient fault injection: the sharded service
 * keeps its futures contract while every shard's FaultInjector is
 * detecting and retrying DRAM/link faults underneath.  Checks per
 * shard that detected == recovered and unrecovered == 0 (transient
 * plans always heal), that the campaign actually fired
 * (injected > 0), and that data plus per-block FIFO future order
 * survive the retries.
 */

#include <gtest/gtest.h>

#include <future>
#include <unordered_map>
#include <vector>

#include "serve/sharded_memory.hh"
#include "util/rng.hh"

namespace secdimm::serve
{
namespace
{

ShardedSecureMemory::Options
faultyOptions(unsigned shards, std::uint64_t seed)
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::PathOram;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = seed;
    opt.shard.faultPlan.dramBitFlipRate = 0.01;
    opt.shard.faultPlan.linkCorruptRate = 0.005;
    opt.shard.faultPlan.maxRetries = 6;
    opt.shard.faultPlan.seed = seed * 13 + 1;
    opt.shard.degradationPolicy = fault::DegradationPolicy::RetryThenStop;
    opt.numShards = shards;
    opt.queueCapacity = 32;
    opt.maxBatch = 4;
    return opt;
}

BlockData
stamp(std::uint64_t tag)
{
    BlockData d{};
    for (std::size_t i = 0; i < 8; ++i)
        d[i] = static_cast<std::uint8_t>(tag >> (8 * i));
    d[63] = 0xee;
    return d;
}

void
expectShardwiseRecovery(ShardedSecureMemory &mem)
{
    std::uint64_t injected = 0;
    for (unsigned s = 0; s < mem.numShards(); ++s) {
        util::MetricsRegistry m = mem.shardMetrics(s);
        const std::uint64_t det = m.counter("fault.detected.total");
        const std::uint64_t rec = m.counter("fault.recovered.total");
        EXPECT_EQ(det, rec) << "shard " << s
                            << ": a detected fault was not recovered";
        EXPECT_EQ(m.counter("fault.unrecovered.total"), 0u)
            << "shard " << s;
        injected += m.counter("fault.injected.total");
    }
    EXPECT_GT(injected, 0u) << "campaign too quiet to mean anything";
}

TEST(ShardedFaults, AsyncBatchesRecoverTransientFaults)
{
    ShardedSecureMemory mem(faultyOptions(4, 31));
    const std::uint64_t cap = mem.capacityBlocks();
    Rng rng(77);
    std::unordered_map<Addr, std::uint64_t> mirror;

    // Interleave async writes and reads without waiting, so worker
    // batches fill up and retries happen INSIDE multi-request
    // batches.  Each read's expected tag is captured at SUBMIT time:
    // per-shard FIFO means the read observes exactly the writes
    // enqueued before it, regardless of what lands on the block later.
    std::vector<std::pair<std::uint64_t, std::future<BlockData>>> reads;
    std::vector<std::future<BlockData>> writes;
    for (std::size_t i = 0; i < 600; ++i) {
        const Addr a = rng.nextBelow(cap);
        if (rng.nextBool(0.5)) {
            mirror[a] = i;
            writes.push_back(mem.submitWrite(a, stamp(i)));
        } else if (mirror.count(a)) {
            reads.emplace_back(mirror[a], mem.submitRead(a));
        }
    }
    for (auto &f : writes)
        f.get();
    std::size_t checked = 0;
    for (auto &[tag, f] : reads) {
        EXPECT_EQ(f.get(), stamp(tag)) << "expected write tag " << tag;
        ++checked;
    }
    EXPECT_GT(checked, 40u);
    EXPECT_TRUE(mem.integrityOk());
    expectShardwiseRecovery(mem);
}

TEST(ShardedFaults, FutureResolutionOrderIsPerShardFifo)
{
    ShardedSecureMemory mem(faultyOptions(2, 32));
    // Hammer ONE block with an async write/read ladder; per-shard
    // FIFO means read k must observe exactly write k even while the
    // injector forces mid-batch retries.
    const Addr block = 5;
    std::vector<std::future<BlockData>> reads;
    for (std::uint64_t k = 0; k < 200; ++k) {
        mem.submitWrite(block, stamp(k));
        reads.push_back(mem.submitRead(block));
    }
    for (std::uint64_t k = 0; k < reads.size(); ++k)
        EXPECT_EQ(reads[k].get(), stamp(k)) << "ladder step " << k;
    expectShardwiseRecovery(mem);
}

TEST(ShardedFaults, MergedMetricsAggregateFaultCounters)
{
    ShardedSecureMemory mem(faultyOptions(2, 33));
    BlockData d = stamp(9);
    for (Addr a = 0; a < 128; ++a)
        mem.writeBlock(a % mem.capacityBlocks(), d);

    std::uint64_t per_shard_injected = 0;
    for (unsigned s = 0; s < mem.numShards(); ++s)
        per_shard_injected =
            per_shard_injected +
            mem.shardMetrics(s).counter("fault.injected.total");
    util::MetricsRegistry merged = mem.metrics();
    EXPECT_EQ(merged.counter("fault.injected.total"),
              per_shard_injected);
    EXPECT_EQ(merged.counter("fault.unrecovered.total"), 0u);
}

TEST(ShardedFaults, ShutdownCompletesFaultyInflightWork)
{
    std::vector<std::future<BlockData>> writes;
    std::vector<std::future<BlockData>> reads;
    {
        ShardedSecureMemory mem(faultyOptions(4, 34));
        for (std::uint64_t k = 0; k < 64; ++k) {
            writes.push_back(mem.submitWrite(k, stamp(k)));
            reads.push_back(mem.submitRead(k));
        }
        mem.shutdown();
    }
    // Accepted work is never dropped, even with retries in flight.
    for (auto &f : writes)
        f.get();
    for (std::uint64_t k = 0; k < reads.size(); ++k)
        EXPECT_EQ(reads[k].get(), stamp(k));
}

} // namespace
} // namespace secdimm::serve

/**
 * @file
 * ShardedSecureMemory semantics: topology/capacity, read-your-writes
 * through the sync facade and the future API, the prior contents
 * every write future resolves with, cross-shard
 * byte-granular ops that straddle shard boundaries, backpressure
 * bounds, shutdown with in-flight requests, the aggregated
 * serve.* metrics snapshot, and group completions: submission-order
 * results, the per-request deadline, and a timed-out group that
 * still completes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "serve/sharded_memory.hh"
#include "util/rng.hh"

namespace secdimm::serve
{
namespace
{

ShardedSecureMemory::Options
smallOptions(unsigned shards,
             core::SecureMemorySystem::Protocol proto =
                 core::SecureMemorySystem::Protocol::PathOram)
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = proto;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = 7;
    opt.numShards = shards;
    opt.queueCapacity = 16;
    opt.maxBatch = 4;
    return opt;
}

TEST(ShardedMemory, TopologyAndCapacity)
{
    ShardedSecureMemory mem(smallOptions(4));
    EXPECT_EQ(mem.numShards(), 4u);
    // Interleaved mapping: adjacent blocks on adjacent shards.
    EXPECT_EQ(mem.shardOf(0), 0u);
    EXPECT_EQ(mem.shardOf(1), 1u);
    EXPECT_EQ(mem.shardOf(5), 1u);
    EXPECT_EQ(mem.localBlock(5), 1u);
    // Every shard holds the same local range.
    EXPECT_EQ(mem.capacityBlocks() % 4, 0u);
    EXPECT_GE(mem.capacityBytes(), std::uint64_t{1} << 16);
}

TEST(ShardedMemory, ReadYourWritesSyncFacade)
{
    for (auto proto : {core::SecureMemorySystem::Protocol::PathOram,
                       core::SecureMemorySystem::Protocol::Split}) {
        ShardedSecureMemory mem(smallOptions(4, proto));
        const std::uint64_t cap = mem.capacityBlocks();
        for (Addr a = 0; a < 32; ++a) {
            BlockData d{};
            d[0] = static_cast<std::uint8_t>(a + 1);
            d[63] = static_cast<std::uint8_t>(~a);
            mem.writeBlock(a % cap, d);
        }
        for (Addr a = 0; a < 32; ++a) {
            const BlockData d = mem.readBlock(a % cap);
            EXPECT_EQ(d[0], static_cast<std::uint8_t>(a + 1));
            EXPECT_EQ(d[63], static_cast<std::uint8_t>(~a));
        }
        EXPECT_TRUE(mem.integrityOk());
    }
}

TEST(ShardedMemory, FutureApiResolvesInOrderPerShard)
{
    ShardedSecureMemory mem(smallOptions(2));
    std::vector<std::future<BlockData>> writes;
    for (Addr a = 0; a < 16; ++a) {
        BlockData d{};
        d[1] = static_cast<std::uint8_t>(a * 3);
        writes.push_back(mem.submitWrite(a, d));
    }
    std::vector<std::future<BlockData>> reads;
    for (Addr a = 0; a < 16; ++a)
        reads.push_back(mem.submitRead(a));
    for (auto &w : writes)
        w.get();
    for (Addr a = 0; a < 16; ++a)
        EXPECT_EQ(reads[a].get()[1], static_cast<std::uint8_t>(a * 3));
}

TEST(ShardedMemory, CrossShardByteOpsStraddleBoundaries)
{
    ShardedSecureMemory mem(smallOptions(4));
    // An unaligned span covering 6 blocks => at least 4 shards and
    // partial blocks at both ends.
    const Addr base = 3 * blockBytes + 17;
    std::vector<std::uint8_t> wr(5 * blockBytes + 11);
    Rng rng(99);
    for (auto &b : wr)
        b = static_cast<std::uint8_t>(rng.next());
    mem.write(base, wr.data(), wr.size());

    std::vector<std::uint8_t> rd(wr.size(), 0);
    mem.read(base, rd.data(), rd.size());
    EXPECT_EQ(wr, rd);

    // The neighbouring bytes of the straddled edge blocks survive.
    std::uint8_t before = 0xAB;
    mem.write(base - 1, &before, 1);
    mem.read(base, rd.data(), rd.size());
    EXPECT_EQ(wr, rd) << "partial-block RMW clobbered the span";
}

TEST(ShardedMemory, WideSpansAtOddOffsetsAcrossManyShards)
{
    // Spans covering 3+ shards at deliberately awkward offsets: every
    // combination of a prime-ish start offset and a length that ends
    // mid-block, over both a shard count that divides the span nicely
    // and one (3) that does not.
    for (unsigned shards : {3u, 4u, 5u}) {
        ShardedSecureMemory mem(smallOptions(shards));
        Rng rng(1000 + shards);
        const std::size_t lens[] = {
            3 * blockBytes + 1,  // Just past 3 blocks.
            4 * blockBytes - 1,  // Just short of 4.
            7 * blockBytes + 29, // Wraps every shard at least once.
        };
        const std::size_t offs[] = {1, 31, blockBytes - 1,
                                    blockBytes + 37};
        for (std::size_t len : lens) {
            for (std::size_t off : offs) {
                const Addr base = 5 * blockBytes + off;
                std::vector<std::uint8_t> wr(len);
                for (auto &b : wr)
                    b = static_cast<std::uint8_t>(rng.next());
                mem.write(base, wr.data(), wr.size());
                std::vector<std::uint8_t> rd(len, 0);
                mem.read(base, rd.data(), rd.size());
                EXPECT_EQ(wr, rd) << "shards=" << shards
                                  << " len=" << len << " off=" << off;
            }
        }
        EXPECT_TRUE(mem.integrityOk());
    }
}

TEST(ShardedMemory, AdjacentOddSpansDoNotClobberEachOther)
{
    // Two abutting odd-offset spans written back-to-back: the second
    // write's RMW on the shared edge block must preserve the first.
    ShardedSecureMemory mem(smallOptions(3));
    const Addr base = 2 * blockBytes + 13;
    std::vector<std::uint8_t> left(3 * blockBytes + 7, 0x11);
    std::vector<std::uint8_t> right(3 * blockBytes + 19, 0x22);
    mem.write(base, left.data(), left.size());
    mem.write(base + left.size(), right.data(), right.size());

    std::vector<std::uint8_t> all(left.size() + right.size(), 0);
    mem.read(base, all.data(), all.size());
    for (std::size_t i = 0; i < left.size(); ++i)
        ASSERT_EQ(all[i], 0x11) << "byte " << i;
    for (std::size_t i = 0; i < right.size(); ++i)
        ASSERT_EQ(all[left.size() + i], 0x22) << "byte " << i;
}

TEST(ShardedMemory, BackpressureBoundsQueueDepth)
{
    ShardedSecureMemory::Options opt = smallOptions(2);
    opt.queueCapacity = 4;
    opt.maxBatch = 2;
    ShardedSecureMemory mem(opt);
    std::vector<std::future<BlockData>> fs;
    for (Addr a = 0; a < 64; ++a)
        fs.push_back(mem.submitWrite(a % mem.capacityBlocks(), BlockData{}));
    for (auto &f : fs)
        f.get();
    const util::MetricsRegistry m = mem.metrics();
    for (unsigned s = 0; s < 2; ++s) {
        const std::string p = "serve.s" + std::to_string(s);
        EXPECT_LE(m.gauge(p + ".queue_high_water"), 4.0);
        const auto *h = m.findHistogram(p + ".batch_size");
        ASSERT_NE(h, nullptr);
        EXPECT_GT(h->count(), 0u);
        EXPECT_LE(h->max(), 2u); // maxBatch bound.
    }
}

TEST(ShardedMemory, ShutdownWithInflightCompletesEverything)
{
    std::vector<std::future<BlockData>> writes;
    std::vector<std::future<BlockData>> reads;
    {
        ShardedSecureMemory mem(smallOptions(4));
        for (Addr a = 0; a < 40; ++a) {
            BlockData d{};
            d[2] = static_cast<std::uint8_t>(a);
            writes.push_back(mem.submitWrite(a, d));
        }
        for (Addr a = 0; a < 40; ++a)
            reads.push_back(mem.submitRead(a));
        mem.shutdown(); // Queued work must still complete.
        EXPECT_THROW(mem.submitRead(0), std::runtime_error);
        EXPECT_THROW(mem.submitWrite(0, BlockData{}),
                     std::runtime_error);
        // Destructor runs with the futures still alive.
    }
    for (auto &w : writes)
        w.get(); // Would throw broken_promise had shutdown dropped it.
    for (Addr a = 0; a < 40; ++a)
        EXPECT_EQ(reads[a].get()[2], static_cast<std::uint8_t>(a));
}

TEST(ShardedMemory, MetricsAggregateAcrossShards)
{
    ShardedSecureMemory mem(smallOptions(4));
    constexpr unsigned kOps = 48;
    for (Addr a = 0; a < kOps; ++a)
        mem.writeBlock(a % mem.capacityBlocks(), BlockData{});
    const util::MetricsRegistry m = mem.metrics();
    EXPECT_EQ(m.counter("serve.shards"), 4u);
    EXPECT_EQ(m.counter("serve.requests"), kOps);
    std::uint64_t per_shard_sum = 0;
    for (unsigned s = 0; s < 4; ++s) {
        const std::string p = "serve.s" + std::to_string(s);
        per_shard_sum += m.counter(p + ".accesses");
        EXPECT_GT(m.counter(p + ".accesses"), 0u)
            << "interleaving left shard " << s << " idle";
        // One depth sample per request routed to the shard, taken
        // under the queue lock, so the count is exact.
        unsigned routed = 0;
        for (Addr a = 0; a < kOps; ++a)
            routed += mem.shardOf(a % mem.capacityBlocks()) == s;
        const auto *depth = m.findHistogram(p + ".queue_depth");
        ASSERT_NE(depth, nullptr);
        EXPECT_EQ(depth->count(), routed) << "shard " << s;
    }
    EXPECT_EQ(per_shard_sum, kOps);
    // Merged shard registries: core.accesses sums every shard's
    // accessORAM count, capacity sums the slices.
    EXPECT_GE(m.counter("core.accesses"), kOps);
    EXPECT_EQ(m.counter("core.capacity_blocks") % 4, 0u);
    EXPECT_EQ(mem.accessCount(), m.counter("core.accesses"));
}

TEST(ShardedMemory, WriteFuturesResolveWithPriorContents)
{
    for (auto proto : {core::SecureMemorySystem::Protocol::PathOram,
                       core::SecureMemorySystem::Protocol::Freecursive,
                       core::SecureMemorySystem::Protocol::Independent,
                       core::SecureMemorySystem::Protocol::Split,
                       core::SecureMemorySystem::Protocol::IndepSplit}) {
        SCOPED_TRACE(static_cast<int>(proto));
        ShardedSecureMemory mem(smallOptions(2, proto));
        BlockData prior{}; // A never-written block reads as zeros.
        // Several rewrites, so the unit designs see the block both
        // stay in its unit and move to another.
        for (std::uint8_t v = 1; v <= 8; ++v) {
            BlockData next{};
            next[0] = v;
            EXPECT_EQ(mem.submitWrite(5, next).get(), prior) << int(v);
            prior = next;
        }
        EXPECT_EQ(mem.readBlock(5), prior);
        EXPECT_TRUE(mem.integrityOk());
    }
}

TEST(ShardedMemory, CoverWriteResolvesWithCurrentContentsUnchanged)
{
    ShardedSecureMemory mem(smallOptions(2));
    BlockData d{};
    d[9] = 0x5a;
    mem.writeBlock(6, d);
    EXPECT_EQ(mem.submitWrite(6, std::nullopt).get(), d);
    EXPECT_EQ(mem.readBlock(6), d);
    EXPECT_EQ(mem.metrics().counter("serve.requests"), 3u);
}

TEST(ShardedMemory, SingleShardDegeneratesToPlainSystem)
{
    ShardedSecureMemory mem(smallOptions(1));
    EXPECT_EQ(mem.numShards(), 1u);
    BlockData d{};
    d[7] = 42;
    mem.writeBlock(9, d);
    EXPECT_EQ(mem.readBlock(9)[7], 42);
    EXPECT_EQ(mem.metrics().counter("serve.s0.accesses"), 2u);
}

BlockData
tagged(Addr block, std::uint8_t version)
{
    BlockData d{};
    std::memcpy(d.data(), &block, sizeof block);
    d[63] = version;
    return d;
}

TEST(ShardedMemory, GroupResultsComeInSubmissionOrder)
{
    // A group far larger than a batch and a queue: its requests
    // reach the workers over many batches and backpressure stalls,
    // yet every result lands at its own index, exactly once.
    ShardedSecureMemory mem(smallOptions(4));
    constexpr Addr kBlocks = 40;
    std::vector<BlockRequest> writes;
    for (Addr a = 0; a < kBlocks; ++a)
        writes.push_back({a, true, tagged(a, 1)});
    for (const BlockData &prior : mem.submitGroup(writes)->wait())
        EXPECT_EQ(prior, BlockData{});

    // Reads in a shuffled order, then a read/write/read ladder on one
    // block: per-shard FIFO inside the group.
    std::vector<Addr> order;
    for (Addr a = 0; a < kBlocks; ++a)
        order.push_back((a * 17) % kBlocks);
    std::vector<BlockRequest> mixed;
    for (Addr a : order)
        mixed.push_back({a, false, std::nullopt});
    mixed.push_back({7, true, tagged(7, 2)});
    mixed.push_back({7, false, std::nullopt});
    mixed.push_back({7, true, std::nullopt}); // Cover write.
    const std::vector<BlockData> got = mem.submitGroup(mixed)->wait();
    ASSERT_EQ(got.size(), mixed.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(got[i], tagged(order[i], 1)) << "index " << i;
    EXPECT_EQ(got[kBlocks], tagged(7, 1));
    EXPECT_EQ(got[kBlocks + 1], tagged(7, 2));
    EXPECT_EQ(got[kBlocks + 2], tagged(7, 2));
    EXPECT_EQ(mem.metrics().counter("serve.requests"),
              kBlocks + mixed.size());
}

TEST(ShardedMemory, ByteSpansReadEdgesOnceThenWriteEveryBlock)
{
    // A span write reads only its partial edge blocks, then writes
    // every block it touches; a span read reads each block once.
    ShardedSecureMemory mem(smallOptions(4));
    struct Span
    {
        Addr addr;
        std::size_t len;
        std::uint64_t requests; ///< Write's edge reads + writes + read.
    };
    const std::vector<Span> spans = {
        {64 * 3, 64 * 5, 5 + 5},          // aligned: no edge reads
        {64 * 10 + 7, 64 * 5, 2 + 6 + 6}, // both edges partial
        {64 * 20 + 5, 10, 1 + 1 + 1},     // inside one block
        {64 * 30, 64 + 9, 1 + 2 + 2},     // partial last edge only
        {64 * 40 + 60, 4, 1 + 1 + 1},     // ends on a block boundary
    };
    std::uint64_t expected = 0;
    for (const Span &sp : spans) {
        std::vector<std::uint8_t> in(sp.len), out(sp.len);
        for (std::size_t i = 0; i < sp.len; ++i)
            in[i] = static_cast<std::uint8_t>(sp.addr + 3 * i + 1);
        mem.write(sp.addr, in.data(), sp.len);
        mem.read(sp.addr, out.data(), sp.len);
        EXPECT_EQ(in, out) << "span at " << sp.addr;
        expected += sp.requests;
        EXPECT_EQ(mem.metrics().counter("serve.requests"), expected)
            << "span at " << sp.addr;
    }
    // Bytes outside every span stayed zero.
    std::uint8_t before = 0xff, after = 0xff;
    mem.read(64 * 10 + 6, &before, 1);
    mem.read(64 * 30 + 64 + 9, &after, 1);
    EXPECT_EQ(before, 0);
    EXPECT_EQ(after, 0);
}

TEST(ShardedMemory, TimedOutGroupStillCompletes)
{
    // Held workers: the wait times out and names the shard of the
    // group's first request.  The waiter then lets go of the group,
    // and the released workers still complete every request.
    ShardedSecureMemory mem(smallOptions(2));
    mem.holdWorkers(true);
    std::vector<BlockRequest> reqs;
    for (Addr a = 1; a <= 6; ++a)
        reqs.push_back({a, true, tagged(a, 3)});
    auto group = mem.submitGroup(reqs);
    try {
        (void)group->wait(std::chrono::milliseconds(1));
        ADD_FAILURE() << "a held group must time out";
    } catch (const RequestTimeoutError &e) {
        EXPECT_EQ(e.shard(), mem.shardOf(1));
        EXPECT_EQ(e.shard(), 1u);
    }
    group.reset();
    mem.holdWorkers(false);
    mem.drain();
    EXPECT_EQ(mem.metrics().counter("serve.requests"), reqs.size());
    for (Addr a = 1; a <= 6; ++a)
        EXPECT_EQ(mem.readBlock(a), tagged(a, 3));
}

TEST(ShardedMemory, GroupDeadlineRunsFromLastProgress)
{
    // The deadline bounds each request, not the group: a group that
    // takes several deadlines in all, but completes a request every
    // few microseconds, never times out.
    ShardedSecureMemory::Options opt = smallOptions(1);
    opt.queueCapacity = 1 << 16; // Submission never waits on the worker.
    ShardedSecureMemory mem(opt);
    const std::chrono::milliseconds deadline(100);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<BlockRequest> probe(64, BlockRequest{3, false, std::nullopt});
    mem.submitGroup(probe)->wait();
    const double per_request =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count() /
        static_cast<double>(probe.size());

    const std::size_t n = static_cast<std::size_t>(
        std::min(3 * 0.1 / per_request, double(opt.queueCapacity)));
    std::vector<BlockRequest> reqs(n, BlockRequest{3, false, std::nullopt});
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(mem.submitGroup(reqs)->wait(deadline));
    if (n < opt.queueCapacity) {
        EXPECT_GT(std::chrono::steady_clock::now() - t1, deadline)
            << n << " requests finished within one deadline";
    }
}

} // namespace
} // namespace secdimm::serve

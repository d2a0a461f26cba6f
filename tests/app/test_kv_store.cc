/**
 * @file
 * ObliviousKVStore semantics: round-trips, batched ops (including
 * duplicate keys inside one batch), values straddling shard
 * boundaries, store-full behaviour (typed error, no silent eviction,
 * channel-identical dummy sequence), size validation, determinism,
 * and typed service-error propagation (ShardFailedError,
 * RequestTimeoutError) through KV operations.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "app/kv_store.hh"
#include "fault/fault_injector.hh"
#include "verify/leak_meter.hh"

namespace secdimm::app
{
namespace
{

/** Service sized for a quarter more slots than @p capacity_keys. */
ObliviousKVStore::Options
kvOptions(unsigned shards, std::uint64_t capacity_keys,
          std::uint64_t seed = 7,
          KvIndexMode mode = KvIndexMode::Oblivious)
{
    ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = seed;
    opt.serve.numShards = shards;
    opt.serve.queueCapacity = 64;
    opt.serve.maxBatch = 4;
    opt.capacityKeys = capacity_keys;
    opt.index = mode;
    opt.seed = seed;
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t slots = capacity_keys + capacity_keys / 4 + 4;
    opt.serve.shard.capacityBytes = slots * bps * blockBytes;
    return opt;
}

TEST(KvStore, PutGetEraseRoundTrip)
{
    ObliviousKVStore store(kvOptions(2, 32));
    EXPECT_EQ(store.liveKeys(), 0u);

    store.put("alpha", "one");
    store.put("beta", std::string(150, 'b'));
    EXPECT_EQ(store.liveKeys(), 2u);

    auto a = store.get("alpha");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, "one");
    auto b = store.get("beta");
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, std::string(150, 'b'));

    // Update in place; size may change.
    store.put("alpha", "reassigned");
    EXPECT_EQ(store.liveKeys(), 2u);
    EXPECT_EQ(store.get("alpha").value(), "reassigned");

    // Empty value round-trips too.
    store.put("gamma", "");
    EXPECT_EQ(store.get("gamma").value(), "");

    EXPECT_TRUE(store.erase("alpha"));
    EXPECT_FALSE(store.erase("alpha"));
    EXPECT_FALSE(store.get("alpha").has_value());
    EXPECT_EQ(store.liveKeys(), 2u);
    EXPECT_TRUE(store.integrityOk());
}

TEST(KvStore, BatchedOpsAndDuplicateKeysApplyInOrder)
{
    ObliviousKVStore store(kvOptions(4, 64));

    std::vector<std::pair<std::string, std::string>> items;
    for (int i = 0; i < 24; ++i)
        items.emplace_back("k" + std::to_string(i),
                           "v" + std::to_string(i));
    // Duplicate key inside the same batch: later op wins.
    items.emplace_back("k3", "v3-final");
    store.multiPut(items);
    EXPECT_EQ(store.liveKeys(), 24u);

    std::vector<std::string> keys;
    for (int i = 0; i < 24; ++i)
        keys.push_back("k" + std::to_string(i));
    keys.push_back("nothere");
    const auto got = store.multiGet(keys);
    ASSERT_EQ(got.size(), 25u);
    for (int i = 0; i < 24; ++i) {
        ASSERT_TRUE(got[i].has_value()) << "k" << i;
        EXPECT_EQ(*got[i], i == 3 ? "v3-final"
                                  : "v" + std::to_string(i));
    }
    EXPECT_FALSE(got[24].has_value());

    const util::MetricsRegistry m = store.metrics();
    EXPECT_EQ(m.counter("kv.puts"), 25u);
    EXPECT_EQ(m.counter("kv.gets"), 25u);
    EXPECT_EQ(m.counter("kv.inserts"), 24u);
    EXPECT_EQ(m.counter("kv.updates"), 1u);
    EXPECT_GE(m.counter("kv.blocks_read"),
              50u * store.blocksPerSlot());
}

TEST(KvStore, ValuesStraddleShardBoundaries)
{
    // 4 blocks per slot across 4 shards: every record's blocks land
    // on ALL shards (slot blocks are consecutive, shard = block % N).
    ObliviousKVStore store(kvOptions(4, 16));
    ASSERT_GE(store.blocksPerSlot(), 4u);
    std::set<unsigned> shards;
    for (unsigned b = 0; b < store.blocksPerSlot(); ++b)
        shards.insert(store.service().shardOf(b));
    EXPECT_EQ(shards.size(), 4u);

    // A maximum-size value must survive the cross-shard round-trip.
    std::string big(192, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('A' + i % 26);
    store.put("straddler", big);
    EXPECT_EQ(store.get("straddler").value(), big);
}

TEST(KvStore, StoreFullTypedErrorNoSilentEviction)
{
    ObliviousKVStore store(kvOptions(2, 4));
    for (int i = 0; i < 4; ++i)
        store.put("k" + std::to_string(i), "v" + std::to_string(i));
    EXPECT_EQ(store.liveKeys(), 4u);

    // The rejected insert performs the SAME visible access sequence
    // as any other op before throwing.
    verify::ScheduleRecorder recorder;
    store.service().setScheduleRecorder(&recorder);
    EXPECT_THROW(store.put("overflow", "x"), KvStoreFullError);
    store.drain();
    const std::size_t full_events = recorder.size();
    recorder.clear();
    (void)store.get("k0");
    store.drain();
    EXPECT_EQ(full_events, recorder.size());
    EXPECT_EQ(recorder.size(), 2u * store.blocksPerSlot());
    store.service().setScheduleRecorder(nullptr);

    // Nothing was evicted, nothing was inserted.
    EXPECT_EQ(store.liveKeys(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(store.get("k" + std::to_string(i)).value(),
                  "v" + std::to_string(i));
    EXPECT_FALSE(store.get("overflow").has_value());

    // Updates of existing keys still work at capacity, and erasing
    // one key makes room for exactly one insert.
    store.put("k0", "v0-updated");
    EXPECT_EQ(store.get("k0").value(), "v0-updated");
    EXPECT_TRUE(store.erase("k1"));
    store.put("newcomer", "welcome");
    EXPECT_EQ(store.get("newcomer").value(), "welcome");
    EXPECT_THROW(store.put("overflow2", "x"), KvStoreFullError);
    EXPECT_EQ(store.metrics().counter("kv.store_full_errors"), 2u);
}

TEST(KvStore, SizeValidationTypedErrors)
{
    ObliviousKVStore store(kvOptions(2, 8));
    EXPECT_THROW(store.put("", "v"), KeyTooLargeError);
    EXPECT_THROW(store.get(std::string(49, 'k')), KeyTooLargeError);
    EXPECT_THROW(store.put("k", std::string(193, 'v')),
                 ValueTooLargeError);
    // A failed validation performs no accesses and commits nothing.
    EXPECT_EQ(store.liveKeys(), 0u);
    EXPECT_EQ(store.metrics().counter("kv.puts"), 0u);
}

TEST(KvStore, UndersizedServiceIsRejected)
{
    ObliviousKVStore::Options opt = kvOptions(2, 64);
    opt.serve.shard.capacityBytes = 4 * blockBytes; // Far too small.
    EXPECT_THROW(ObliviousKVStore{opt}, std::invalid_argument);
}

TEST(KvStore, DeterministicAcrossRuns)
{
    // Same seeds + same single-threaded op sequence => identical
    // results and identical kv.* counters.
    auto run = [](std::uint64_t seed) {
        ObliviousKVStore store(kvOptions(2, 32, seed));
        std::string out;
        for (int i = 0; i < 20; ++i)
            store.put("k" + std::to_string(i % 8),
                      "v" + std::to_string(i));
        for (int i = 0; i < 8; ++i)
            out += store.get("k" + std::to_string(i)).value_or("-");
        store.erase("k5");
        out += store.get("k5").value_or("<gone>");
        const util::MetricsRegistry m = store.metrics();
        return out + "|" + std::to_string(m.counter("kv.hits")) + "/" +
               std::to_string(m.counter("kv.misses"));
    };
    EXPECT_EQ(run(11), run(11));
}

TEST(KvStore, RequestTimeoutPropagates)
{
    // Hold the shard workers, then issue a deadline-bounded op: its
    // requests wait in the queues until the workers are released, so
    // the typed RequestTimeoutError must surface through the KV op
    // however the OS schedules the threads, and a read-phase timeout
    // commits nothing.  The key is never stored: a miss get runs the
    // same 2*B-access sequence as a hit, and no setup op has to beat
    // the 1 ms deadline.
    ObliviousKVStore::Options opt = kvOptions(2, 8);
    opt.opDeadline = std::chrono::milliseconds(1);
    ObliviousKVStore store(opt);

    store.service().holdWorkers(true);
    bool timed_out = false;
    try {
        (void)store.get("victim");
    } catch (const serve::RequestTimeoutError &e) {
        timed_out = true;
        // The op waits first on block 0 of its slot, which every
        // slot places on shard 0.
        EXPECT_EQ(e.shard(), 0u);
        EXPECT_NE(std::string(e.what()).find("1 ms"), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(timed_out);

    store.service().holdWorkers(false);
    store.drain();
    const util::MetricsRegistry m = store.metrics();
    // The op timed out before its writes: no get was committed.
    EXPECT_EQ(m.counter("kv.gets"), 0u);
    // Accepted work is never dropped: the timed-out op's reads were
    // still served once the workers were released.
    EXPECT_EQ(m.counter("serve.requests"), store.blocksPerSlot());
    for (unsigned s = 0; s < store.service().numShards(); ++s)
        EXPECT_EQ(store.service().shardHealth(s),
                  serve::ShardHealth::Healthy);
}

TEST(KvStore, ShardFailedPropagatesAndStoreStaysUp)
{
    // Shard 1 runs a lethal plan (first unrecoverable fault kills
    // it); every slot spans both shards, so ops start failing with
    // the typed ShardFailedError -- but never hang or crash, and the
    // store object stays usable.
    ObliviousKVStore::Options opt = kvOptions(2, 16);
    fault::FaultPlan lethal = fault::FaultPlan::uniform(0.5, 99);
    lethal.maxRetries = 0;
    opt.serve.shardFaultPlans = {fault::FaultPlan::none(), lethal};
    ObliviousKVStore store(opt);

    std::size_t failed = 0;
    for (int i = 0; i < 12; ++i) {
        try {
            store.put("k" + std::to_string(i), "v");
        } catch (const serve::ShardFailedError &e) {
            EXPECT_EQ(e.shard(), 1u);
            ++failed;
        }
    }
    EXPECT_GT(failed, 0u);
    EXPECT_EQ(store.service().shardHealth(1),
              serve::ShardHealth::Failed);
    // Further ops still resolve typed errors, not hangs.
    EXPECT_THROW((void)store.get("k0"), serve::ShardFailedError);
}

} // namespace
} // namespace secdimm::app

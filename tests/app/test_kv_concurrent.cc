/**
 * @file
 * Concurrency contract of ObliviousKVStore: many clients hammering
 * the store (singles + batches, overlapping and disjoint key sets)
 * must observe read-your-writes per key, keep the free-slot
 * accounting exact, and leave the underlying ORAM shards consistent.
 * Built into the thread-sanitizer CI job -- TSan-clean is part of the
 * contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/kv_store.hh"
#include "app/kv_workload.hh"

namespace secdimm::app
{
namespace
{

ObliviousKVStore::Options
kvOptions(unsigned shards, std::uint64_t capacity_keys,
          std::uint64_t seed)
{
    ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = seed;
    opt.serve.numShards = shards;
    opt.serve.queueCapacity = 128;
    opt.serve.maxBatch = 8;
    opt.capacityKeys = capacity_keys;
    opt.seed = seed;
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t slots = capacity_keys + capacity_keys / 4 + 4;
    opt.serve.shard.capacityBytes = slots * bps * blockBytes;
    return opt;
}

TEST(KvConcurrent, ReadYourWritesPerClientKeyspace)
{
    // Each client owns a disjoint key range and must always read back
    // its own latest write; clients overlap only in time.
    const unsigned clients = 4;
    const int keys_per_client = 6;
    const int rounds = 10;
    ObliviousKVStore store(
        kvOptions(4, clients * keys_per_client, /*seed=*/23));

    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            for (int r = 0; r < rounds && !failed.load(); ++r) {
                for (int k = 0; k < keys_per_client; ++k) {
                    const std::string key = "c" + std::to_string(c) +
                                            ":" + std::to_string(k);
                    const std::string val =
                        KvWorkloadGenerator::valueFor(key, r, 64);
                    store.put(key, val);
                    const auto got = store.get(key);
                    if (!got.has_value() || *got != val) {
                        failed.store(true);
                        ADD_FAILURE()
                            << key << " round " << r << ": "
                            << (got ? *got : "<miss>");
                    }
                }
                // Batched round over the same keyspace.
                std::vector<std::string> keys;
                for (int k = 0; k < keys_per_client; ++k)
                    keys.push_back("c" + std::to_string(c) + ":" +
                                   std::to_string(k));
                const auto batch = store.multiGet(keys);
                for (int k = 0; k < keys_per_client; ++k) {
                    const std::string want =
                        KvWorkloadGenerator::valueFor(keys[k], r, 64);
                    if (!batch[k].has_value() || *batch[k] != want) {
                        failed.store(true);
                        ADD_FAILURE() << keys[k] << " batch round "
                                      << r;
                    }
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.liveKeys(), clients * keys_per_client);
    EXPECT_TRUE(store.integrityOk());

    const util::MetricsRegistry m = store.metrics();
    EXPECT_EQ(m.counter("kv.puts"),
              std::uint64_t(clients) * rounds * keys_per_client);
    // Only the round-0 inserts miss their index lookup; every get
    // (single or batched) lands after the put it reads.
    EXPECT_EQ(m.counter("kv.misses"),
              std::uint64_t(clients) * keys_per_client);
}

TEST(KvConcurrent, ContendedKeysSerializeWithoutCorruption)
{
    // All clients fight over the SAME small key set with writer wins
    // unknowable -- but every read must return SOME value a client
    // wrote for that key (no torn records, no dummy leakage), and the
    // slot accounting must balance at the end.
    const unsigned clients = 4;
    const int rounds = 30;
    const int hot_keys = 3;
    ObliviousKVStore store(kvOptions(2, 16, /*seed=*/29));

    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            for (int r = 0; r < rounds && !failed.load(); ++r) {
                const std::string key =
                    "hot" + std::to_string((c + r) % hot_keys);
                if (r % 3 == 2) {
                    (void)store.erase(key);
                    continue;
                }
                store.put(key, key + "=" + std::to_string(c) + "." +
                                   std::to_string(r));
                const auto got = store.get(key);
                // A concurrent erase may remove it; a hit must carry
                // a well-formed value for THIS key.
                if (got.has_value() &&
                    got->rfind(key + "=", 0) != 0) {
                    failed.store(true);
                    ADD_FAILURE() << "torn read: " << *got;
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_LE(store.liveKeys(), hot_keys);
    EXPECT_TRUE(store.integrityOk());

    // Every op committed or rolled back: gets+puts+erases add up and
    // the store still accepts new work.
    store.put("post", "mortem");
    EXPECT_EQ(store.get("post").value(), "mortem");
}

TEST(KvConcurrent, CoverOpsNeverUndoConcurrentUpdates)
{
    // Every slot is live, so each get or erase of an absent key reads
    // and cover-writes a slot that some key owns, while updaters keep
    // rewriting those keys.  A cover op that wrote back the blocks it
    // read would undo any update landing between its two phases.
    ObliviousKVStore::Options opt = kvOptions(2, 16, /*seed=*/37);
    opt.capacityKeys = ObliviousKVStore::slotsFor(
        opt.serve, opt.maxKeyBytes, opt.maxValueBytes);
    ObliviousKVStore store(opt);
    ASSERT_EQ(store.capacityKeys(), store.slotCount());
    const int keys = static_cast<int>(store.slotCount());
    auto key_of = [](int k) { return "live" + std::to_string(k); };
    for (int k = 0; k < keys; ++k)
        store.put(key_of(k), KvWorkloadGenerator::valueFor(key_of(k), 0,
                                                           64));
    ASSERT_EQ(store.liveKeys(), store.slotCount());

    const unsigned updaters = 2, coverers = 2;
    const int rounds = 8;
    std::atomic<bool> failed{false};
    std::atomic<unsigned> updating{updaters};
    std::vector<std::thread> workers;
    for (unsigned u = 0; u < updaters; ++u) {
        workers.emplace_back([&, u] {
            for (int r = 1; r <= rounds && !failed.load(); ++r) {
                for (int k = static_cast<int>(u); k < keys;
                     k += static_cast<int>(updaters)) {
                    const std::string val =
                        KvWorkloadGenerator::valueFor(key_of(k), r, 64);
                    store.put(key_of(k), val);
                    if (store.get(key_of(k)) != val) {
                        failed.store(true);
                        ADD_FAILURE() << key_of(k) << " round " << r;
                    }
                }
            }
            --updating;
        });
    }
    for (unsigned c = 0; c < coverers; ++c) {
        workers.emplace_back([&, c] {
            for (int i = 0; updating.load() > 0; ++i) {
                const std::string ghost = "ghost" + std::to_string(c) +
                                          ":" + std::to_string(i);
                if (store.get(ghost).has_value() || store.erase(ghost)) {
                    failed.store(true);
                    ADD_FAILURE() << ghost << " found";
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_FALSE(failed.load());

    for (int k = 0; k < keys; ++k)
        EXPECT_EQ(store.get(key_of(k)),
                  KvWorkloadGenerator::valueFor(key_of(k), rounds, 64))
            << key_of(k);
    EXPECT_EQ(store.liveKeys(), store.slotCount());
    EXPECT_TRUE(store.integrityOk());
    const util::MetricsRegistry m = store.metrics();
    EXPECT_GT(m.counter("kv.dummy_ops"), 0u);
    EXPECT_EQ(m.counter("kv.key_mismatches"), 0u);
}

TEST(KvConcurrent, WorkloadDrivenSoak)
{
    // Zipfian generator per client (distinct tenants), full op mix
    // incl. misses; correctness oracle is a per-thread shadow map.
    const unsigned clients = 3;
    ObliviousKVStore store(kvOptions(4, 96, /*seed=*/31));

    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            KvWorkloadSpec spec;
            spec.kind = KvWorkloadKind::Zipfian;
            spec.tenant = "soak" + std::to_string(c);
            spec.keys = 24;
            spec.getFraction = 0.6;
            spec.missFraction = 0.1;
            spec.valueBytes = 48;
            KvWorkloadGenerator gen(spec, 1000 + c);
            std::unordered_map<std::string, std::string> shadow;
            for (int i = 0; i < 120 && !failed.load(); ++i) {
                const KvOp op = gen.next();
                try {
                    if (op.put) {
                        store.put(op.key, op.value);
                        shadow[op.key] = op.value;
                    } else {
                        const auto got = store.get(op.key);
                        const auto want = shadow.find(op.key);
                        const bool have =
                            want != shadow.end();
                        if (got.has_value() != have ||
                            (have && *got != want->second)) {
                            failed.store(true);
                            ADD_FAILURE()
                                << op.key << " op " << i;
                        }
                    }
                } catch (const KvStoreFullError &) {
                    // Capacity contention across tenants is fine.
                }
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_FALSE(failed.load());
    EXPECT_TRUE(store.integrityOk());
    EXPECT_LE(store.liveKeys(), store.capacityKeys());
}

} // namespace
} // namespace secdimm::app

/**
 * @file
 * The obliviousness deliverable of the KV layer: the externally
 * visible channel (per-shard bucket-store traces) and the interleaved
 * completion schedule must be indistinguishable across differing key
 * sets, value contents, hit/miss ratios, and even op types -- every
 * operation is blocksPerSlot reads of one slot followed by
 * blocksPerSlot writes of the same slot, block j on shard j mod N.
 * The deliberately leaky baseline
 * index (static slots, hit-length reads, no dummy work) is the
 * positive control: the same checkers must FAIL it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_checker.hh"

namespace secdimm::app
{
namespace
{

ObliviousKVStore::Options
kvOptions(unsigned shards, std::uint64_t capacity_keys,
          std::uint64_t seed, KvIndexMode mode)
{
    ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = seed;
    opt.serve.numShards = shards;
    opt.serve.queueCapacity = 64;
    opt.serve.maxBatch = 4;
    opt.capacityKeys = capacity_keys;
    opt.maxValueBytes = 96; // 3 blocks per slot with 48-byte keys.
    opt.index = mode;
    opt.seed = seed;
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t bps = (record + blockBytes - 1) / blockBytes;
    const std::uint64_t slots = capacity_keys + capacity_keys / 4 + 4;
    opt.serve.shard.capacityBytes = slots * bps * blockBytes;
    return opt;
}

/** One scripted op of a secret workload. */
struct ScriptOp
{
    enum class What { Get, Put, Erase } what = What::Get;
    std::string key;
    std::string value;
};

/**
 * Build a store, preload @p resident keys, then run @p script while
 * observing every shard's bucket-store channel and the interleaved
 * schedule.  Only the measured (post-preload) traffic is recorded.
 */
verify::Observation
runScript(const ObliviousKVStore::Options &opt,
          const std::vector<std::string> &resident,
          const std::string &resident_value,
          const std::vector<ScriptOp> &script)
{
    ObliviousKVStore store(opt);
    std::vector<std::unique_ptr<verify::ChannelObserver>> observers;
    for (unsigned s = 0; s < store.service().numShards(); ++s) {
        observers.push_back(
            std::make_unique<verify::ChannelObserver>());
        EXPECT_GT(store.service().attachObserver(s, *observers.back()),
                  0u);
    }
    verify::ScheduleRecorder recorder;

    for (const std::string &key : resident)
        store.put(key, resident_value);
    store.drain();
    for (auto &obs : observers)
        obs->clear();
    store.service().setScheduleRecorder(&recorder);

    for (const ScriptOp &op : script) {
        switch (op.what) {
          case ScriptOp::What::Get:
            (void)store.get(op.key);
            break;
          case ScriptOp::What::Put:
            try {
                store.put(op.key, op.value);
            } catch (const KvStoreFullError &) {
                // Full inserts still perform the dummy sequence.
            }
            break;
          case ScriptOp::What::Erase:
            (void)store.erase(op.key);
            break;
        }
    }
    store.drain();
    store.service().setScheduleRecorder(nullptr);

    verify::Observation r;
    for (auto &obs : observers)
        r.shardTraces.push_back(obs->events());
    r.schedule = recorder.events();
    return r;
}

/**
 * The calibrated gate over runs of the two secret workloads.  Every
 * draw re-seeds the store and its shards' engines (public
 * randomness) away from the options' own seeds.
 */
verify::CalibratedComparison
calibratedGate(const ObliviousKVStore::Options &opt_a,
               const std::vector<std::string> &resident_a,
               const std::string &value_a,
               const std::vector<ScriptOp> &script_a,
               const ObliviousKVStore::Options &opt_b,
               const std::vector<std::string> &resident_b,
               const std::string &value_b,
               const std::vector<ScriptOp> &script_b)
{
    return verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            ObliviousKVStore::Options o = secret ? opt_b : opt_a;
            o.seed += 1000 * draw;
            o.serve.shard.seed = o.seed;
            return secret ? runScript(o, resident_b, value_b, script_b)
                          : runScript(o, resident_a, value_a, script_a);
        });
}

std::vector<std::string>
keyRange(const std::string &prefix, std::size_t n)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(prefix + std::to_string(i));
    return out;
}

TEST(KvOblivious, EveryOpHasTheSameVisibleShape)
{
    // Hit get, miss get, insert, update, erase-hit, erase-miss, and a
    // capacity-rejected insert: all exactly B reads then B writes, and
    // event j of each phase lands on shard j mod N -- whichever slot
    // the op touched.  B = 3 over N = 2 shards, so a slot stride of B
    // would start odd slots on shard 1.
    ObliviousKVStore::Options opt =
        kvOptions(2, 4, /*seed=*/21, KvIndexMode::Oblivious);
    ObliviousKVStore store(opt);
    const unsigned B = store.blocksPerSlot();
    const unsigned N = store.service().numShards();
    ASSERT_EQ(B, 3u);
    ASSERT_EQ(N, 2u);
    for (int i = 0; i < 4; ++i)
        store.put("k" + std::to_string(i), "v");

    verify::ScheduleRecorder recorder;
    store.drain();
    store.service().setScheduleRecorder(&recorder);

    (void)store.get("k0");                       // Hit.
    (void)store.get("ghost");                    // Miss.
    store.put("k1", "updated");                  // Update.
    EXPECT_THROW(store.put("full", "x"), KvStoreFullError);
    (void)store.erase("k2");                     // Erase hit.
    (void)store.erase("ghost2");                 // Erase miss.
    store.put("fresh", "v");                     // Insert (k2 freed).
    store.drain();
    store.service().setScheduleRecorder(nullptr);

    const auto events = recorder.events();
    ASSERT_EQ(events.size(), 7u * 2 * B);
    for (std::size_t op = 0; op < 7; ++op) {
        for (unsigned j = 0; j < 2 * B; ++j) {
            const bool expect_write = j >= B;
            EXPECT_EQ(events[op * 2 * B + j].write, expect_write)
                << "op " << op << " position " << j;
        }
        // The shard workers run in parallel, so a phase's events may
        // complete in either shard order; what the layout fixes is
        // how many of them each shard serves.
        for (unsigned phase = 0; phase < 2; ++phase) {
            std::vector<unsigned> want(N, 0), got(N, 0);
            for (unsigned j = 0; j < B; ++j) {
                ++want[j % N];
                ++got[events[op * 2 * B + phase * B + j].shard];
            }
            EXPECT_EQ(got, want) << "op " << op << " phase " << phase;
        }
    }
}

TEST(KvOblivious, HitMissRatioIsInvisible)
{
    // A: every get hits; B: every get misses.  Same op count -- the
    // channel and schedule must not tell them apart.
    const auto opt_a = kvOptions(2, 48, 31, KvIndexMode::Oblivious);
    const auto opt_b = kvOptions(2, 48, 32, KvIndexMode::Oblivious);
    const auto resident = keyRange("res", 32);

    std::vector<ScriptOp> hits, misses;
    for (int i = 0; i < 220; ++i) {
        hits.push_back({ScriptOp::What::Get,
                        "res" + std::to_string(i % 32), ""});
        misses.push_back(
            {ScriptOp::What::Get, "absent" + std::to_string(i), ""});
    }
    const verify::CalibratedComparison c = calibratedGate(
        opt_a, resident, "value", hits, opt_b, resident, "value", misses);
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(KvOblivious, KeySetAndValueContentAreInvisible)
{
    // Disjoint key namespaces AND different value payloads; also a
    // different hit pattern (clustered vs spread).
    const auto opt_a = kvOptions(2, 48, 41, KvIndexMode::Oblivious);
    const auto opt_b = kvOptions(2, 48, 42, KvIndexMode::Oblivious);

    std::vector<ScriptOp> a_script, b_script;
    for (int i = 0; i < 200; ++i) {
        // A hammers two hot keys with constant values.
        a_script.push_back({ScriptOp::What::Put,
                            "hot" + std::to_string(i % 2),
                            std::string(90, 'a')});
        // B spreads updates over its whole (different) key set with
        // varying values.
        b_script.push_back({ScriptOp::What::Put,
                            "spread" + std::to_string(i % 24),
                            std::string(1 + i % 90, 'z')});
    }
    const verify::CalibratedComparison c = calibratedGate(
        opt_a, keyRange("hot", 2), "init", a_script, opt_b,
        keyRange("spread", 24), "other-init", b_script);
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(KvOblivious, OpTypeMixIsInvisible)
{
    // All-gets vs a get/put/erase blend: every op has the same
    // visible shape, so even the op-type mix is hidden.
    const auto opt_a = kvOptions(2, 48, 51, KvIndexMode::Oblivious);
    const auto opt_b = kvOptions(2, 48, 52, KvIndexMode::Oblivious);
    const auto resident = keyRange("res", 24);

    std::vector<ScriptOp> gets, blend;
    for (int i = 0; i < 200; ++i) {
        gets.push_back({ScriptOp::What::Get,
                        "res" + std::to_string(i % 24), ""});
        switch (i % 4) {
          case 0:
            blend.push_back({ScriptOp::What::Get,
                             "res" + std::to_string(i % 24), ""});
            break;
          case 1:
            blend.push_back({ScriptOp::What::Put,
                             "res" + std::to_string(i % 24), "new"});
            break;
          case 2:
            blend.push_back({ScriptOp::What::Erase,
                             "res" + std::to_string((i + 1) % 24), ""});
            break;
          default:
            blend.push_back({ScriptOp::What::Put,
                             "res" + std::to_string((i + 1) % 24),
                             "back"});
            break;
        }
    }
    const verify::CalibratedComparison c = calibratedGate(
        opt_a, resident, "value", gets, opt_b, resident, "value", blend);
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(KvOblivious, LeakyBaselineFailsTheSameChecks)
{
    // Positive control: the leaky index must be caught by BOTH the
    // per-shard trace comparison and the schedule comparison on the
    // exact workload pair the oblivious index passes.
    const auto opt_a = kvOptions(2, 48, 61, KvIndexMode::LeakyBaseline);
    const auto opt_b = kvOptions(2, 48, 62, KvIndexMode::LeakyBaseline);
    const auto resident = keyRange("res", 32);

    std::vector<ScriptOp> hits, mostly_misses;
    for (int i = 0; i < 220; ++i) {
        hits.push_back({ScriptOp::What::Get,
                        "res" + std::to_string(i % 32), ""});
        // 1 in 5 hits so the miss-heavy run still emits SOME events.
        mostly_misses.push_back(
            {ScriptOp::What::Get,
             i % 5 == 0 ? "res" + std::to_string(i % 32)
                        : "absent" + std::to_string(i),
             ""});
    }
    const verify::Observation a =
        runScript(opt_a, resident, "value", hits);
    const verify::Observation b =
        runScript(opt_b, resident, "value", mostly_misses);

    // Hit-length reads vs nothing: wildly different event counts.
    EXPECT_GT(a.schedule.size(), 2 * b.schedule.size());
    const verify::ScheduleComparison sc =
        verify::compareSchedules(a.schedule, b.schedule);
    EXPECT_FALSE(sc.pass) << sc.summary();

    bool any_shard_fails = false;
    for (std::size_t s = 0; s < a.shardTraces.size(); ++s) {
        const verify::DeepComparison d = verify::deepCompareTraces(
            a.shardTraces[s], b.shardTraces[s]);
        any_shard_fails = any_shard_fails || !d.pass;
    }
    EXPECT_TRUE(any_shard_fails)
        << "leaky baseline must fail at least one per-shard check";

    const verify::CalibratedComparison c =
        calibratedGate(opt_a, resident, "value", hits, opt_b, resident,
                       "value", mostly_misses);
    EXPECT_FALSE(c.pass) << c.summary();
}

} // namespace
} // namespace secdimm::app

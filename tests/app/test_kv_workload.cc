/**
 * @file
 * Workload engine: seed-pinned determinism (the contract behind
 * trace_replay --workload-seed=), statistical shape of each generator
 * (zipfian skew, hot-set concentration, scan sequentiality, mix
 * tenant ratios), WorkloadSpec JSON round-trips, CLI flag parsing,
 * and the KvBlockStream trace adapter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "app/kv_workload.hh"

namespace secdimm::app
{
namespace
{

std::vector<KvOp>
take(KvWorkloadGenerator &gen, std::size_t n)
{
    std::vector<KvOp> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ops.push_back(gen.next());
    return ops;
}

/** Numeric id of a "tenant:k<id>" key (miss keys are "tenant:m..."). */
long
keyId(const std::string &key)
{
    const std::size_t at = key.rfind(":k");
    if (at == std::string::npos)
        return -1;
    return std::stol(key.substr(at + 2));
}

TEST(KvWorkload, SameSeedSameStreamDifferentSeedDiffers)
{
    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::Zipfian;
    spec.keys = 128;
    spec.missFraction = 0.2;

    KvWorkloadGenerator a(spec, 42), b(spec, 42), c(spec, 43);
    const auto ops_a = take(a, 400);
    const auto ops_b = take(b, 400);
    const auto ops_c = take(c, 400);

    bool diverged = false;
    for (std::size_t i = 0; i < ops_a.size(); ++i) {
        EXPECT_EQ(ops_a[i].key, ops_b[i].key) << i;
        EXPECT_EQ(ops_a[i].value, ops_b[i].value) << i;
        EXPECT_EQ(ops_a[i].put, ops_b[i].put) << i;
        EXPECT_EQ(ops_a[i].expectAbsent, ops_b[i].expectAbsent) << i;
        diverged = diverged || ops_a[i].key != ops_c[i].key;
    }
    EXPECT_TRUE(diverged);

    // Preload is deterministic too and covers the whole population.
    const auto pre = a.preload();
    ASSERT_EQ(pre.size(), spec.keys);
    for (const KvOp &op : pre)
        EXPECT_TRUE(op.put);
}

TEST(KvWorkload, ZipfianIsSkewedAndScattered)
{
    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::Zipfian;
    spec.keys = 256;
    spec.zipfTheta = 0.99;
    spec.getFraction = 1.0;
    KvWorkloadGenerator gen(spec, 7);

    std::map<std::string, std::size_t> freq;
    for (const KvOp &op : take(gen, 4000))
        ++freq[op.key];

    std::size_t top = 0;
    long top_id = -1;
    for (const auto &[key, count] : freq) {
        if (count > top) {
            top = count;
            top_id = keyId(key);
        }
    }
    // Uniform would give ~16 hits/key; zipf(0.99) concentrates far
    // more on the head...
    EXPECT_GT(top, 200u);
    // ...and rank scrambling means the hottest key is (overwhelmingly
    // likely) not literally id 0.
    EXPECT_GE(top_id, 0);
    EXPECT_LT(freq.size(), spec.keys + 1);
}

TEST(KvWorkload, HotSetConcentratesOps)
{
    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::HotSet;
    spec.keys = 200;
    spec.hotOpFraction = 0.9;
    spec.hotKeyFraction = 0.1;
    spec.getFraction = 1.0;
    KvWorkloadGenerator gen(spec, 11);

    std::map<std::string, std::size_t> freq;
    const std::size_t total = 5000;
    for (const KvOp &op : take(gen, total))
        ++freq[op.key];

    // The 20 hottest keys should absorb ~90% of the traffic.
    std::vector<std::size_t> counts;
    for (const auto &[key, count] : freq)
        counts.push_back(count);
    std::sort(counts.rbegin(), counts.rend());
    std::size_t hot_ops = 0;
    for (std::size_t i = 0; i < counts.size() && i < 20; ++i)
        hot_ops += counts[i];
    EXPECT_GT(hot_ops, total * 80 / 100);
    EXPECT_LT(hot_ops, total * 97 / 100);
}

TEST(KvWorkload, ScanIsSequentialInRuns)
{
    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::Scan;
    spec.keys = 500;
    spec.scanLen = 32;
    spec.getFraction = 1.0;
    KvWorkloadGenerator gen(spec, 13);

    const auto ops = take(gen, 1000);
    std::size_t sequential = 0;
    for (std::size_t i = 1; i < ops.size(); ++i) {
        const long prev = keyId(ops[i - 1].key);
        const long cur = keyId(ops[i].key);
        if (cur == (prev + 1) % static_cast<long>(spec.keys))
            ++sequential;
    }
    // Within every 32-op sweep all steps are +1; only the jumps break
    // the chain.
    EXPECT_GT(sequential, ops.size() * 9 / 10);
}

TEST(KvWorkload, MixBlendsTenantsByWeight)
{
    KvWorkloadSpec zipf;
    zipf.kind = KvWorkloadKind::Zipfian;
    zipf.tenant = "analytics";
    zipf.keys = 64;
    KvWorkloadSpec scan;
    scan.kind = KvWorkloadKind::Scan;
    scan.tenant = "batch";
    scan.keys = 64;

    KvWorkloadSpec mix;
    mix.kind = KvWorkloadKind::Mix;
    mix.tenants = {zipf, scan};
    mix.weights = {3.0, 1.0};
    KvWorkloadGenerator gen(mix, 17);

    std::size_t analytics = 0, batch = 0;
    for (const KvOp &op : take(gen, 4000)) {
        if (op.key.rfind("analytics:", 0) == 0)
            ++analytics;
        else if (op.key.rfind("batch:", 0) == 0)
            ++batch;
        else
            FAIL() << "unexpected tenant in key " << op.key;
    }
    // 3:1 split within generous sampling noise.
    EXPECT_GT(analytics, 2600u);
    EXPECT_LT(analytics, 3400u);
    EXPECT_EQ(analytics + batch, 4000u);

    // Mix preload covers every tenant's population.
    EXPECT_EQ(gen.preload().size(), zipf.keys + scan.keys);
}

TEST(KvWorkload, SpecJsonRoundTrips)
{
    KvWorkloadSpec inner;
    inner.kind = KvWorkloadKind::HotSet;
    inner.tenant = "web";
    inner.keys = 77;
    inner.hotOpFraction = 0.8;
    inner.hotKeyFraction = 0.05;
    inner.getFraction = 0.6;
    inner.missFraction = 0.25;
    inner.valueBytes = 40;

    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::Mix;
    spec.tenants = {inner};
    spec.weights = {2.5};

    const std::string json = kvWorkloadSpecToJson(spec, 2);
    std::string err;
    const auto parsed = kvWorkloadSpecFromJson(json, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->kind, KvWorkloadKind::Mix);
    ASSERT_EQ(parsed->tenants.size(), 1u);
    const KvWorkloadSpec &t = parsed->tenants[0];
    EXPECT_EQ(t.kind, KvWorkloadKind::HotSet);
    EXPECT_EQ(t.tenant, "web");
    EXPECT_EQ(t.keys, 77u);
    EXPECT_DOUBLE_EQ(t.hotOpFraction, 0.8);
    EXPECT_DOUBLE_EQ(t.hotKeyFraction, 0.05);
    EXPECT_DOUBLE_EQ(t.getFraction, 0.6);
    EXPECT_DOUBLE_EQ(t.missFraction, 0.25);
    EXPECT_EQ(t.valueBytes, 40u);
    EXPECT_DOUBLE_EQ(parsed->weights.at(0), 2.5);

    // Same stream either side of the round-trip.
    KvWorkloadGenerator a(spec, 3), b(*parsed, 3);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.next().key, b.next().key);

    // Integers beyond double's 53-bit mantissa come back exact.
    KvWorkloadSpec big;
    big.keys = (std::uint64_t{1} << 53) + 1;
    big.scanLen = ~std::uint64_t{0};
    const auto big_back =
        kvWorkloadSpecFromJson(kvWorkloadSpecToJson(big, -1), &err);
    ASSERT_TRUE(big_back.has_value()) << err;
    EXPECT_EQ(big_back->keys, big.keys);
    EXPECT_EQ(big_back->scanLen, big.scanLen);
}

TEST(KvWorkload, MalformedSpecsAreRejected)
{
    std::string err;
    EXPECT_FALSE(kvWorkloadSpecFromJson("{", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(
        kvWorkloadSpecFromJson("{\"kind\": \"nope\"}").has_value());
    EXPECT_FALSE(
        kvWorkloadSpecFromJson("{\"kind\": \"zipfian\", \"bogus\": 1}")
            .has_value());
    // Out-of-range parameters.
    EXPECT_FALSE(kvWorkloadSpecFromJson(
                     "{\"kind\": \"zipfian\", \"zipf_theta\": 1.5}")
                     .has_value());
    EXPECT_FALSE(kvWorkloadSpecFromJson(
                     "{\"kind\": \"zipfian\", \"keys\": 0}")
                     .has_value());
    // Integer fields take exact non-negative integers only: no
    // wrap-around, no truncation, no overflow, no strings.
    for (const char *bad :
         {"{\"keys\": -5}", "{\"keys\": 2.7}", "{\"value_bytes\": -1}",
          "{\"keys\": 18446744073709551616}", "{\"scan_len\": 1e300}",
          "{\"keys\": \"7\"}", "{\"zipf_theta\": \"0.5\"}",
          "{\"zipf_theta\": 1e999}", "{\"keys\": 4, \"keys\": 5}"})
        EXPECT_FALSE(kvWorkloadSpecFromJson(bad).has_value()) << bad;
    // Mix needs tenants, with weights parallel.
    EXPECT_FALSE(kvWorkloadSpecFromJson("{\"kind\": \"mix\"}")
                     .has_value());
    EXPECT_FALSE(
        kvWorkloadSpecFromJson(
            "{\"kind\": \"mix\", \"tenants\": [{\"kind\": \"scan\"}], "
            "\"weights\": [1.0, 2.0]}")
            .has_value());
}

TEST(KvWorkload, FlagShorthandsParse)
{
    std::string err;
    auto zipf = parseKvWorkloadFlag("zipfian:0.75", &err);
    ASSERT_TRUE(zipf.has_value()) << err;
    EXPECT_EQ(zipf->kind, KvWorkloadKind::Zipfian);
    EXPECT_DOUBLE_EQ(zipf->zipfTheta, 0.75);

    auto hot = parseKvWorkloadFlag("hotset:0.25");
    ASSERT_TRUE(hot.has_value());
    EXPECT_EQ(hot->kind, KvWorkloadKind::HotSet);
    EXPECT_DOUBLE_EQ(hot->hotOpFraction, 0.25);

    auto scan = parseKvWorkloadFlag("scan");
    ASSERT_TRUE(scan.has_value());
    EXPECT_EQ(scan->kind, KvWorkloadKind::Scan);
    auto scan16 = parseKvWorkloadFlag("scan:16");
    ASSERT_TRUE(scan16.has_value());
    EXPECT_EQ(scan16->scanLen, 16u);

    // mix:<file> loads a full JSON spec from disk.
    KvWorkloadSpec sub;
    sub.kind = KvWorkloadKind::Scan;
    sub.tenant = "filed";
    KvWorkloadSpec mix;
    mix.kind = KvWorkloadKind::Mix;
    mix.tenants = {sub};
    mix.weights = {1.0};
    const std::string path = "kv_workload_flag_test.json";
    {
        std::ofstream out(path);
        out << kvWorkloadSpecToJson(mix, 2);
    }
    auto filed = parseKvWorkloadFlag("mix:" + path, &err);
    std::remove(path.c_str());
    ASSERT_TRUE(filed.has_value()) << err;
    EXPECT_EQ(filed->kind, KvWorkloadKind::Mix);
    ASSERT_EQ(filed->tenants.size(), 1u);
    EXPECT_EQ(filed->tenants[0].tenant, "filed");

    EXPECT_FALSE(parseKvWorkloadFlag("zipfian:2.0", &err).has_value());
    EXPECT_FALSE(parseKvWorkloadFlag("unknown", &err).has_value());
    EXPECT_FALSE(
        parseKvWorkloadFlag("mix:/does/not/exist.json", &err)
            .has_value());
}

TEST(KvWorkload, ValueForIsPureAndSized)
{
    const std::string v1 = KvWorkloadGenerator::valueFor("k", 5, 32);
    EXPECT_EQ(v1, KvWorkloadGenerator::valueFor("k", 5, 32));
    EXPECT_EQ(v1.size(), 32u);
    EXPECT_NE(v1, KvWorkloadGenerator::valueFor("k", 6, 32));
    EXPECT_NE(v1, KvWorkloadGenerator::valueFor("j", 5, 32));
}

TEST(KvWorkload, BlockStreamIsDeterministicAndSlotShaped)
{
    KvWorkloadSpec spec;
    spec.kind = KvWorkloadKind::Zipfian;
    spec.keys = 64;

    const std::uint64_t footprint = 1 << 16;
    KvBlockStream a(spec, 9, footprint, 4);
    KvBlockStream b(spec, 9, footprint, 4);
    KvBlockStream c(spec, 10, footprint, 4);

    bool diverged = false;
    for (int i = 0; i < 600; ++i) {
        const trace::TraceRecord ra = a.next();
        const trace::TraceRecord rb = b.next();
        const trace::TraceRecord rc = c.next();
        EXPECT_EQ(ra.addr, rb.addr) << i;
        EXPECT_EQ(ra.write, rb.write) << i;
        EXPECT_EQ(ra.instGap, rb.instGap) << i;
        EXPECT_LT(ra.addr, footprint);
        diverged = diverged || ra.addr != rc.addr;
    }
    EXPECT_TRUE(diverged);

    // Each op expands to blocksPerSlot() consecutive block touches of
    // one slot with the same read/write kind.
    KvBlockStream fresh(spec, 9, footprint, 4);
    for (int op = 0; op < 50; ++op) {
        const trace::TraceRecord first = fresh.next();
        EXPECT_EQ(first.addr % blockBytes, 0u);
        for (unsigned blk = 1; blk < fresh.blocksPerSlot(); ++blk) {
            const trace::TraceRecord rec = fresh.next();
            EXPECT_EQ(rec.addr, first.addr + blk * blockBytes);
            EXPECT_EQ(rec.write, first.write);
            EXPECT_EQ(rec.instGap, 1u);
        }
    }
}

} // namespace
} // namespace secdimm::app

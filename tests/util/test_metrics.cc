/**
 * @file
 * MetricsRegistry / LogHistogram unit tests: counter, gauge, and
 * histogram semantics, kind-collision detection, merging, and the
 * JSON round trip the BENCH_*.json snapshots rely on.
 */

#include <gtest/gtest.h>

#include "util/metrics.hh"

using namespace secdimm;
using util::LogHistogram;
using util::MetricsRegistry;

TEST(LogHistogram, BucketsArePowerOfTwoRanges)
{
    LogHistogram h;
    h.sample(0); // Bucket 0.
    h.sample(1); // Bucket 1: [1, 2).
    h.sample(2); // Bucket 2: [2, 4).
    h.sample(3);
    h.sample(4); // Bucket 3: [4, 8).
    h.sample(7);

    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 17.0);
    EXPECT_DOUBLE_EQ(h.mean(), 17.0 / 6.0);
}

TEST(LogHistogram, BucketBoundsMatchSampling)
{
    EXPECT_EQ(LogHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LogHistogram::bucketHigh(0), 0u);
    EXPECT_EQ(LogHistogram::bucketLow(1), 1u);
    EXPECT_EQ(LogHistogram::bucketHigh(1), 1u);
    EXPECT_EQ(LogHistogram::bucketLow(4), 8u);
    EXPECT_EQ(LogHistogram::bucketHigh(4), 15u);

    // Sampling a bucket's bounds lands in that bucket.
    for (std::size_t i = 0; i < 12; ++i) {
        LogHistogram h;
        h.sample(LogHistogram::bucketLow(i));
        h.sample(LogHistogram::bucketHigh(i));
        ASSERT_EQ(h.buckets().size(), i + 1);
        EXPECT_EQ(h.buckets()[i], 2u);
    }
}

TEST(LogHistogram, MergeAddsBucketsAndMoments)
{
    LogHistogram a, b;
    a.sample(1);
    a.sample(100);
    b.sample(5);

    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.max(), 100u);
    EXPECT_DOUBLE_EQ(a.sum(), 106.0);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_TRUE(a.buckets().empty());
}

TEST(MetricsRegistry, CounterSemantics)
{
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.incCounter("a.events");
    m.incCounter("a.events", 4);
    EXPECT_EQ(m.counter("a.events"), 5u);
    m.setCounter("a.events", 2);
    EXPECT_EQ(m.counter("a.events"), 2u);
    // Unknown counters read as zero.
    EXPECT_EQ(m.counter("a.absent"), 0u);
    EXPECT_TRUE(m.has("a.events"));
    EXPECT_FALSE(m.has("a.absent"));
}

TEST(MetricsRegistry, GaugeAndHistogramSemantics)
{
    MetricsRegistry m;
    m.setGauge("x.rate", 0.5);
    m.setGauge("x.rate", 0.75); // Overwrite.
    EXPECT_DOUBLE_EQ(m.gauge("x.rate"), 0.75);
    EXPECT_DOUBLE_EQ(m.gauge("x.absent"), 0.0);

    m.histogram("x.depth").sample(3);
    m.histogram("x.depth").sample(9);
    EXPECT_EQ(m.histogram("x.depth").count(), 2u);
    EXPECT_NE(m.findHistogram("x.depth"), nullptr);
    EXPECT_EQ(m.findHistogram("x.absent"), nullptr);
}

TEST(MetricsRegistry, KindCollisionThrows)
{
    MetricsRegistry m;
    m.incCounter("dup");
    EXPECT_THROW(m.setGauge("dup", 1.0), std::logic_error);
    EXPECT_THROW(m.histogram("dup"), std::logic_error);

    m.setGauge("g", 1.0);
    EXPECT_THROW(m.incCounter("g"), std::logic_error);
}

TEST(MetricsRegistry, NamesAreSortedAcrossKinds)
{
    MetricsRegistry m;
    m.setGauge("b", 1.0);
    m.incCounter("a");
    m.histogram("c").sample(1);
    const auto names = m.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

TEST(MetricsRegistry, MergeCombines)
{
    MetricsRegistry a, b;
    a.incCounter("n", 2);
    a.setGauge("g", 1.0);
    a.histogram("h").sample(1);
    b.incCounter("n", 3);
    b.setGauge("g", 7.0);
    b.histogram("h").sample(2);

    a.merge(b);
    EXPECT_EQ(a.counter("n"), 5u);     // Counters add.
    EXPECT_DOUBLE_EQ(a.gauge("g"), 7.0); // Gauges overwrite.
    EXPECT_EQ(a.histogram("h").count(), 2u); // Histograms merge.
}

TEST(MetricsRegistry, JsonRoundTrip)
{
    MetricsRegistry m;
    m.incCounter("dram.ch0.reads", 12345);
    m.setCounter("big", ~0ULL >> 1);
    m.setGauge("core.ipc", 0.125);
    m.setGauge("neg", -2.5e-3);
    m.setGauge("quote\"key", 1.0); // Escaping in names.
    auto &h = m.histogram("sdimm.queue_depth");
    h.sample(0);
    h.sample(3);
    h.sample(250);

    for (int indent : {-1, 0, 2}) {
        const std::string json = m.toJson(indent);
        const auto parsed = MetricsRegistry::fromJson(json);
        ASSERT_TRUE(parsed.has_value()) << json;
        EXPECT_EQ(parsed->counter("dram.ch0.reads"), 12345u);
        EXPECT_EQ(parsed->counter("big"), ~0ULL >> 1);
        EXPECT_DOUBLE_EQ(parsed->gauge("core.ipc"), 0.125);
        EXPECT_DOUBLE_EQ(parsed->gauge("neg"), -2.5e-3);
        EXPECT_DOUBLE_EQ(parsed->gauge("quote\"key"), 1.0);
        const auto *ph = parsed->findHistogram("sdimm.queue_depth");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->count(), 3u);
        EXPECT_EQ(ph->max(), 250u);
        EXPECT_DOUBLE_EQ(ph->sum(), 253.0);
        EXPECT_EQ(ph->buckets(), h.buckets());
    }
}

TEST(MetricsRegistry, FromJsonRejectsMalformedInput)
{
    EXPECT_FALSE(MetricsRegistry::fromJson("").has_value());
    EXPECT_FALSE(MetricsRegistry::fromJson("{").has_value());
    EXPECT_FALSE(MetricsRegistry::fromJson("[]").has_value());
    EXPECT_FALSE(
        MetricsRegistry::fromJson("{\"counters\":{\"a\":}}")
            .has_value());
    // Trailing garbage after a valid object.
    const std::string good = MetricsRegistry().toJson();
    EXPECT_TRUE(MetricsRegistry::fromJson(good).has_value());
    EXPECT_FALSE(MetricsRegistry::fromJson(good + "x").has_value());
}

TEST(MetricsRegistry, ResetClearsEverything)
{
    MetricsRegistry m;
    m.incCounter("a");
    m.setGauge("b", 1);
    m.histogram("c").sample(1);
    m.reset();
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(m.names().empty());
}

TEST(MetricsRegistry, MergeIsSelfMergeSafeAndLocked)
{
    MetricsRegistry a;
    a.incCounter("x", 3);
    a.merge(a); // Self-merge must not double.
    EXPECT_EQ(a.counter("x"), 3u);

    MetricsRegistry b;
    b.incCounter("x", 4);
    a.merge(b);
    EXPECT_EQ(a.counter("x"), 7u);
}

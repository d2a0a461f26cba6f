#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "oram/path_oram.hh"
#include "util/metrics.hh"
#include "verify/invariant_audit.hh"

namespace secdimm::oram
{
namespace
{

OramParams
smallParams(unsigned levels = 8)
{
    OramParams p;
    p.levels = levels;
    p.stashCapacity = 200;
    return p;
}

std::unique_ptr<PathOram>
makeOram(unsigned levels = 8, std::uint64_t seed = 1)
{
    return std::make_unique<PathOram>(
        smallParams(levels), crypto::makeKey(0xa, 0xb),
        crypto::makeKey(0xc, 0xd), seed);
}

/** An 8-level tree (9 levels) whose top @p cached levels are cached. */
std::unique_ptr<PathOram>
makeCachedOram(unsigned cached, std::uint64_t seed = 1)
{
    OramParams p = smallParams(8);
    p.cachedLevels = cached;
    return std::make_unique<PathOram>(p, crypto::makeKey(0xa, 0xb),
                                      crypto::makeKey(0xc, 0xd), seed);
}

/** Store seqs of every bucket in the top @p cached levels. */
std::vector<std::uint64_t>
cachedSeqs(const PathOram &oram, unsigned cached)
{
    std::vector<std::uint64_t> out;
    for (unsigned level = 0; level < cached; ++level) {
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << level); ++i)
            out.push_back(oram.layout().bucketSeq({level, i}));
    }
    return out;
}

BlockData
blockOf(std::uint64_t v)
{
    BlockData d{};
    for (int i = 0; i < 8; ++i)
        d[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
    return d;
}

TEST(PathOram, UninitializedReadsZero)
{
    auto oram = makeOram();
    EXPECT_EQ(oram->access(0, OramOp::Read), BlockData{});
    EXPECT_EQ(oram->access(123, OramOp::Read), BlockData{});
}

TEST(PathOram, ReadYourWrites)
{
    auto oram = makeOram();
    const BlockData v = blockOf(0xdeadbeef);
    oram->access(7, OramOp::Write, &v);
    EXPECT_EQ(oram->access(7, OramOp::Read), v);
}

TEST(PathOram, WriteReturnsOldValue)
{
    auto oram = makeOram();
    const BlockData v1 = blockOf(1), v2 = blockOf(2);
    oram->access(7, OramOp::Write, &v1);
    EXPECT_EQ(oram->access(7, OramOp::Write, &v2), v1);
    EXPECT_EQ(oram->access(7, OramOp::Read), v2);
}

TEST(PathOram, ManyBlocksSurviveShuffling)
{
    auto oram = makeOram(8, 3);
    const std::uint64_t capacity = smallParams().capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(99);
    // Fill.
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.nextBelow(capacity);
        const std::uint64_t v = rng.next();
        const BlockData d = blockOf(v);
        oram->access(a, OramOp::Write, &d);
        expected[a] = v;
    }
    // Random reads and overwrites.
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const auto it = expected.find(a);
            const BlockData got = oram->access(a, OramOp::Read);
            const BlockData want =
                it == expected.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(got, want) << "addr " << a << " iter " << i;
        } else {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram->access(a, OramOp::Write, &d);
            expected[a] = v;
        }
    }
    EXPECT_TRUE(oram->integrityOk());
}

TEST(PathOram, LeafRemappedEveryAccess)
{
    auto oram = makeOram();
    const BlockData v = blockOf(1);
    oram->access(5, OramOp::Write, &v);
    int changes = 0;
    LeafId prev = oram->leafOf(5);
    for (int i = 0; i < 50; ++i) {
        oram->access(5, OramOp::Read);
        const LeafId cur = oram->leafOf(5);
        changes += cur != prev;
        prev = cur;
    }
    // 2^8 leaves: collisions are rare; nearly every access remaps.
    EXPECT_GT(changes, 45);
}

TEST(PathOram, PathInvariantHolds)
{
    // After any access, the accessed leaf recorded in the trace is
    // the PRE-remap leaf: the block must have been on that path or
    // in the stash.  We validate indirectly: repeated read-your-
    // writes across thousands of accesses (above) plus stash bounds.
    auto oram = makeOram(6, 5);
    const std::uint64_t capacity =
        smallParams(6).capacityBlocks();
    const BlockData v = blockOf(7);
    for (Addr a = 0; a < capacity; ++a)
        oram->access(a % capacity, OramOp::Write, &v);
    EXPECT_LE(oram->stash().maxSizeSeen(),
              oram->params().stashCapacity);
    EXPECT_TRUE(oram->integrityOk());
}

TEST(PathOram, LeafTraceLooksUniform)
{
    // Obliviousness: the observed leaf sequence should look the
    // same for two very different access patterns.
    // Check uniformity of touched leaves via a chi-square-ish bound.
    auto uniformity = [](bool sequential) {
        auto oram = makeOram(8, 7);
        const std::uint64_t capacity = smallParams().capacityBlocks();
        const BlockData v = blockOf(1);
        Rng rng(13);
        std::vector<LeafId> trace;
        for (int i = 0; i < 2000; ++i) {
            const Addr a = sequential
                               ? static_cast<Addr>(i) % capacity
                               : rng.nextBelow(capacity);
            trace.push_back(oram->leafOf(a)); // The path it reads.
            oram->access(a, OramOp::Write, &v);
        }
        // Bin the leaf trace into 16 bins.
        std::vector<int> bins(16, 0);
        for (LeafId l : trace)
            ++bins[l % 16];
        const double expect =
            static_cast<double>(trace.size()) / bins.size();
        double chi2 = 0;
        for (int b : bins)
            chi2 += (b - expect) * (b - expect) / expect;
        return chi2;
    };
    // Chi-square with 15 dof: values below ~37 pass at p=0.001.
    EXPECT_LT(uniformity(true), 45.0);
    EXPECT_LT(uniformity(false), 45.0);
}

TEST(PathOram, SameAddressRepeatedTouchesDifferentLeaves)
{
    // The core ORAM property: hammering one address must not hammer
    // one leaf.
    auto oram = makeOram(8, 11);
    const BlockData v = blockOf(1);
    oram->access(3, OramOp::Write, &v);
    std::vector<LeafId> leaves;
    for (int i = 0; i < 200; ++i) {
        leaves.push_back(oram->leafOf(3));
        oram->access(3, OramOp::Read);
    }
    std::vector<bool> seen(1u << 8, false);
    unsigned distinct = 0;
    for (LeafId l : leaves) {
        if (!seen[l]) {
            seen[l] = true;
            ++distinct;
        }
    }
    // 200 draws over 256 leaves: expect ~140 distinct.
    EXPECT_GT(distinct, 100u);
}

TEST(PathOram, TamperIsDetected)
{
    auto oram = makeOram(6, 15);
    const BlockData v = blockOf(42);
    oram->access(0, OramOp::Write, &v);
    // Corrupt every bucket: the next access must flag integrity.
    for (std::uint64_t seq = 0; seq < oram->store().numBuckets(); ++seq)
        oram->store().tamperData(seq, 3);
    oram->access(0, OramOp::Read);
    EXPECT_FALSE(oram->integrityOk());
    EXPECT_GT(oram->stats().integrityFailures, 0u);
}

TEST(PathOram, ReplayIsDetected)
{
    auto oram = makeOram(6, 17);
    const BlockData v1 = blockOf(1);
    oram->access(0, OramOp::Write, &v1);

    // Capture the root bucket (on every path), then let the ORAM
    // advance, then roll the root back.
    const auto old_image = oram->store().rawImage(0);
    const auto old_counter = oram->store().counter(0);
    const auto old_mac = oram->store().rawMac(0);
    const BlockData v2 = blockOf(2);
    oram->access(0, OramOp::Write, &v2);
    oram->store().replayFrom(0, old_image, old_counter, old_mac);
    oram->access(0, OramOp::Read);
    EXPECT_FALSE(oram->integrityOk());
}

TEST(PathOram, BackgroundEvictionKeepsStashBounded)
{
    auto oram = makeOram(6, 19);
    const std::uint64_t capacity = smallParams(6).capacityBlocks();
    const BlockData v = blockOf(9);
    for (int i = 0; i < 2000; ++i)
        oram->access(static_cast<Addr>(i) % capacity, OramOp::Write,
                     &v);
    EXPECT_LE(oram->stashSize(), oram->params().stashCapacity / 2 +
                                     oram->params().bucketBlocks *
                                         (oram->params().levels + 1));
}

TEST(PathOram, StashPeakCountsAdoptedBlocks)
{
    // Blocks adopted between accesses (an Independent APPEND) raise
    // the stash peak as much as a path read does, and the exported
    // metric reads that peak.
    auto oram = makeOram(6, 3);
    for (Addr a = 0; a < 3; ++a)
        ASSERT_TRUE(oram->adoptBlock(a, a, blockOf(a)));
    EXPECT_EQ(oram->stash().maxSizeSeen(), 3u);
    util::MetricsRegistry m;
    oram->exportMetrics(m, "oram");
    EXPECT_EQ(m.counter("oram.stash.max"), 3u);
}

TEST(PathOram, DistinctSeedsDistinctLeafSequences)
{
    auto a = makeOram(8, 100);
    auto b = makeOram(8, 200);
    const BlockData v = blockOf(1);
    std::vector<LeafId> leaves_a, leaves_b;
    for (int i = 0; i < 50; ++i) {
        leaves_a.push_back(a->leafOf(0));
        leaves_b.push_back(b->leafOf(0));
        a->access(0, OramOp::Write, &v);
        b->access(0, OramOp::Write, &v);
    }
    EXPECT_NE(leaves_a, leaves_b);
}

TEST(PathOramCached, ReadYourWritesAndStashBound)
{
    // Read-your-writes against a shadow map with half the tree's top
    // levels in trusted memory; the stash stays within its bound.
    auto oram = makeCachedOram(4, 21);
    const std::uint64_t capacity = oram->params().capacityBlocks();
    std::map<Addr, std::uint64_t> shadow;
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const auto it = shadow.find(a);
            const BlockData want =
                it == shadow.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(oram->access(a, OramOp::Read), want)
                << "addr " << a << " iter " << i;
        } else {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram->access(a, OramOp::Write, &d);
            shadow[a] = v;
        }
        ASSERT_LE(oram->stashSize(),
                  oram->params().stashCapacity / 2 +
                      oram->params().bucketBlocks *
                          (oram->params().levels + 1));
    }
    EXPECT_LE(oram->stash().maxSizeSeen(), oram->params().stashCapacity);
    EXPECT_TRUE(oram->integrityOk());
}

TEST(PathOramCached, AuditSeesBlocksInCachedLevels)
{
    auto oram = makeCachedOram(4, 25);
    const std::uint64_t capacity = oram->params().capacityBlocks();
    for (Addr a = 0; a < capacity; ++a) {
        const BlockData d = blockOf(a + 1);
        oram->access(a, OramOp::Write, &d);
    }
    unsigned in_cache = 0;
    for (unsigned level = 0; level < 4; ++level) {
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << level); ++i) {
            const BucketReadResult r = oram->readBucketAt({level, i});
            EXPECT_TRUE(r.authentic);
            in_cache += r.bucket.occupancy();
        }
    }
    ASSERT_GT(in_cache, 0u) << "no block settled in a cached level";
    const verify::AuditReport r = verify::auditPathOram(*oram, true);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(PathOramCached, TamperingAnyUncachedBucketIsDetected)
{
    // Every uncached level of the path the next access reads.
    const LeafId leaf = 77;
    for (unsigned level = 4; level <= 8; ++level) {
        auto oram = makeCachedOram(4, 27);
        const BlockData v = blockOf(5);
        oram->accessExplicit(0, leaf, leaf, OramOp::Write, &v);
        oram->store().tamperData(
            oram->layout().bucketSeq(pathBucket(leaf, level, 8)), 3);
        oram->accessExplicit(0, leaf, leaf, OramOp::Read);
        EXPECT_FALSE(oram->integrityOk()) << "level " << level;
    }
}

TEST(PathOramCached, ReplayingAnyUncachedBucketIsDetected)
{
    const LeafId leaf = 200;
    for (unsigned level = 4; level <= 8; ++level) {
        auto oram = makeCachedOram(4, 29);
        const std::uint64_t seq =
            oram->layout().bucketSeq(pathBucket(leaf, level, 8));
        const BlockData v1 = blockOf(1), v2 = blockOf(2);
        oram->accessExplicit(0, leaf, leaf, OramOp::Write, &v1);
        const auto old_image = oram->store().rawImage(seq);
        const auto old_counter = oram->store().counter(seq);
        const auto old_mac = oram->store().rawMac(seq);
        oram->accessExplicit(0, leaf, leaf, OramOp::Write, &v2);
        oram->store().replayFrom(seq, old_image, old_counter, old_mac);
        oram->accessExplicit(0, leaf, leaf, OramOp::Read);
        EXPECT_FALSE(oram->integrityOk()) << "level " << level;
    }
}

TEST(PathOramCached, ObserverSeesOnlyUncachedLevels)
{
    for (const unsigned cached : {1u, 4u, 9u}) {
        auto oram = makeCachedOram(cached, 31);
        const std::vector<std::uint64_t> hidden =
            cachedSeqs(*oram, cached);
        std::uint64_t reads = 0, writes = 0, leaked = 0;
        oram->attachObserver([&](TraceEventKind kind, std::uint64_t seq) {
            reads += kind == TraceEventKind::StoreRead;
            writes += kind == TraceEventKind::StoreWrite;
            leaked += std::find(hidden.begin(), hidden.end(), seq) !=
                      hidden.end();
        });
        const BlockData v = blockOf(3);
        for (Addr a = 0; a < 400; ++a)
            oram->access(a % 97, OramOp::Write, &v);
        // Background evictions are path accesses too.
        const std::uint64_t per_path = oram->params().levels + 1 - cached;
        EXPECT_EQ(reads, per_path * oram->accessCount()) << cached;
        EXPECT_EQ(writes, per_path * oram->accessCount()) << cached;
        EXPECT_EQ(leaked, 0u) << cached;
    }
}

TEST(PathOramCached, CachedBucketsNeverTouchTheStore)
{
    auto oram = makeCachedOram(4, 33);
    const BlockData v = blockOf(4);
    for (Addr a = 0; a < 300; ++a)
        oram->access(a % 50, OramOp::Write, &v);
    EXPECT_TRUE(oram->integrityOk());
    // No cached bucket is ever written to the store, not even at
    // construction, while the first uncached level's buckets are
    // written once there and then once per access of their paths.
    for (const std::uint64_t seq : cachedSeqs(*oram, 4))
        EXPECT_EQ(oram->store().counter(seq), 0u) << seq;
    std::uint64_t level4_writes = 0;
    for (std::uint64_t i = 0; i < 16; ++i)
        level4_writes +=
            oram->store().counter(oram->layout().bucketSeq({4, i})) - 1;
    EXPECT_EQ(level4_writes, oram->accessCount());
    util::MetricsRegistry m;
    oram->exportMetrics(m, "oram");
    EXPECT_EQ(m.gauge("oram.cached_levels"), 4.0);
}

} // namespace
} // namespace secdimm::oram

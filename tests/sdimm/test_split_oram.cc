#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "crypto/aes128.hh"
#include "oram/path_oram.hh"
#include "oram/tree_layout.hh"
#include "sdimm/split_oram.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace secdimm::sdimm
{
namespace
{

SplitOram::Params
smallParams(unsigned slices = 2, unsigned levels = 7)
{
    SplitOram::Params p;
    p.tree.levels = levels;
    p.tree.stashCapacity = 200;
    p.slices = slices;
    return p;
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

TEST(SplitShares, ExtractMergeRoundTrip)
{
    std::vector<std::uint8_t> full(64);
    for (std::size_t i = 0; i < full.size(); ++i)
        full[i] = static_cast<std::uint8_t>(i * 7);
    for (unsigned s : {2u, 4u}) {
        std::vector<std::uint8_t> rebuilt(64, 0);
        std::vector<std::uint8_t> share(64);
        for (unsigned j = 0; j < s; ++j) {
            extractShare(full, j, s, share);
            mergeShare(rebuilt, share, j, s);
        }
        EXPECT_EQ(rebuilt, full) << "slices=" << s;
    }
}

TEST(SplitShares, SharesPartitionTheBytes)
{
    std::vector<std::uint8_t> full(64, 0xff);
    std::vector<std::uint8_t> share(64);
    const std::size_t s0 = extractShare(full, 0, 2, share);
    const std::size_t s1 = extractShare(full, 1, 2, share);
    EXPECT_EQ(s0 + s1, full.size());
}

TEST(SplitOram, UninitializedReadsZero)
{
    SplitOram oram(smallParams(), 1);
    EXPECT_EQ(oram.access(0, oram::OramOp::Read), BlockData{});
}

TEST(SplitOram, ReadYourWrites)
{
    SplitOram oram(smallParams(), 1);
    const BlockData v = blockOf(0xfeedfacecafebeefULL);
    oram.access(3, oram::OramOp::Write, &v);
    EXPECT_EQ(oram.access(3, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(SplitOram, WriteReturnsOldValue)
{
    SplitOram oram(smallParams(), 1);
    const BlockData v1 = blockOf(1), v2 = blockOf(2);
    oram.access(3, oram::OramOp::Write, &v1);
    EXPECT_EQ(oram.access(3, oram::OramOp::Write, &v2), v1);
    EXPECT_EQ(oram.access(3, oram::OramOp::Read), v2);
}

TEST(SplitOram, ManyBlocksSurviveShuffling)
{
    SplitOram oram(smallParams(2, 8), 3);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(21);
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.nextBelow(capacity);
        const std::uint64_t v = rng.next();
        const BlockData d = blockOf(v);
        oram.access(a, oram::OramOp::Write, &d);
        expected[a] = v;
    }
    for (int i = 0; i < 400; ++i) {
        const Addr a = rng.nextBelow(capacity);
        const auto it = expected.find(a);
        const BlockData want =
            it == expected.end() ? BlockData{} : blockOf(it->second);
        ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
            << "addr " << a << " iter " << i;
    }
    EXPECT_TRUE(oram.integrityOk());
    EXPECT_EQ(oram.stats().integrityFailures, 0u);
}

TEST(SplitOram, FourWaySplitWorks)
{
    SplitOram oram(smallParams(4, 6), 5);
    const BlockData v = blockOf(77);
    for (Addr a = 0; a < 40; ++a)
        oram.access(a, oram::OramOp::Write, &v);
    for (Addr a = 0; a < 40; ++a)
        EXPECT_EQ(oram.access(a, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(SplitOram, SliceTamperDetected)
{
    SplitOram oram(smallParams(2, 6), 7);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    // Corrupt one byte of slice 1's share of the root bucket data.
    oram.tamperSlice(1, 0, 0, 0);
    oram.access(0, oram::OramOp::Read);
    EXPECT_FALSE(oram.integrityOk());
}

TEST(SplitOram, ChannelTrafficIsMetadataDominated)
{
    // The point of Split: local (on-DIMM) bytes dwarf channel bytes.
    SplitOram oram(smallParams(2, 10), 9);
    const BlockData v = blockOf(5);
    for (int i = 0; i < 50; ++i)
        oram.access(static_cast<Addr>(i), oram::OramOp::Write, &v);
    EXPECT_GT(oram.stats().localBytes, oram.stats().channelBytes);
}

TEST(SplitOram, LeafTraceUniformUnderHammering)
{
    SplitOram oram(smallParams(2, 8), 11);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    std::vector<int> bins(16, 0);
    std::size_t leaves = 0;
    oram.attachObserver([&](TraceEventKind, std::uint64_t leaf) {
        ++bins[leaf % 16];
        ++leaves;
    });
    for (int i = 0; i < 400; ++i)
        oram.access(0, oram::OramOp::Read);
    const double expect = static_cast<double>(leaves) / bins.size();
    double chi2 = 0;
    for (int b : bins)
        chi2 += (b - expect) * (b - expect) / expect;
    EXPECT_LT(chi2, 45.0);
}

TEST(SplitOram, ShadowStashStaysBounded)
{
    SplitOram oram(smallParams(2, 7), 13);
    const BlockData v = blockOf(3);
    for (int i = 0; i < 1000; ++i)
        oram.access(static_cast<Addr>(i) % oram.capacityBlocks(),
                    oram::OramOp::Write, &v);
    EXPECT_LE(oram.shadowStash().maxSizeSeen(),
              oram.capacityBlocks()); // Sanity.
    EXPECT_LE(oram.shadowStash().size(), 200u);
}

TEST(SplitOram, ShadowStashPeakCountsTheAccessedBlock)
{
    // A fresh tree holds no blocks, so the written block is the only
    // one to pass through the shadow stash (between the path read and
    // the path write): the peak must count it.
    SplitOram oram(smallParams(), 1);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    EXPECT_EQ(oram.shadowStash().maxSizeSeen(), 1u);
    EXPECT_EQ(oram.shadowStash().size(), 0u);
}

TEST(SplitOram, OverwritePersistsAcrossManyAccesses)
{
    SplitOram oram(smallParams(2, 7), 15);
    const BlockData v1 = blockOf(0xaaaa), v2 = blockOf(0xbbbb);
    oram.access(9, oram::OramOp::Write, &v1);
    for (int i = 0; i < 100; ++i)
        oram.access(static_cast<Addr>(i % 30 + 10), oram::OramOp::Read);
    EXPECT_EQ(oram.access(9, oram::OramOp::Write, &v2), v1);
    for (int i = 0; i < 100; ++i)
        oram.access(static_cast<Addr>(i % 30 + 10), oram::OramOp::Read);
    EXPECT_EQ(oram.access(9, oram::OramOp::Read), v2);
}

/** The (addr, leaf) pairs of a stash's entries, sorted. */
template <class Stash>
std::vector<std::pair<Addr, LeafId>>
stashed(const Stash &stash)
{
    std::vector<std::pair<Addr, LeafId>> out;
    for (const auto &e : stash.entries())
        out.emplace_back(e.addr, e.leaf);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(SplitOram, EvictsLikePathOram)
{
    // Path ORAM and Split driven with the same tree shape and the same
    // (addr, old leaf, new leaf, op) sequence -- removals included --
    // must keep the same blocks under the same leaves in their stashes:
    // both evict by the one greedy rule.  The stashes stay below
    // stashCapacity/2, so no background eviction draws its own leaf.
    const SplitOram::Params p = smallParams(2, 6);
    oram::PathOram path(p.tree, crypto::makeKey(1, 2),
                        crypto::makeKey(3, 4), 5);
    SplitOram split(p, 6);
    const LeafId leaves = p.tree.numLeaves();
    constexpr Addr kBlocks = 96;
    std::vector<LeafId> pos(kBlocks, invalidLeaf);
    Rng rng(0xe71c7);
    for (int i = 0; i < 3000; ++i) {
        const Addr a = rng.nextBelow(kBlocks);
        const LeafId old_leaf =
            pos[a] == invalidLeaf ? rng.nextBelow(leaves) : pos[a];
        const LeafId new_leaf =
            rng.nextBool(0.05) ? invalidLeaf : rng.nextBelow(leaves);
        const bool write = rng.nextBool(0.5);
        const BlockData v = blockOf(static_cast<std::uint64_t>(i));
        const oram::OramOp op =
            write ? oram::OramOp::Write : oram::OramOp::Read;
        const BlockData *data = write ? &v : nullptr;
        pos[a] = new_leaf;

        ASSERT_EQ(path.accessExplicit(a, old_leaf, new_leaf, op, data),
                  split.accessExplicit(a, old_leaf, new_leaf, op, data))
            << "access " << i;
        ASSERT_EQ(stashed(path.stash()), stashed(split.shadowStash()))
            << "access " << i;
    }
    EXPECT_EQ(path.stats().dummyAccesses, 0u);
    EXPECT_EQ(split.stats().dummyAccesses, 0u);
    EXPECT_GT(split.shadowStash().maxSizeSeen(), 4u);
}

// ---- ORAM cache: the top cachedLevels levels held at the CPU ----------

constexpr unsigned kCachedTreeLevels = 8;

/** A 9-level tree with its top @p cached levels at the CPU. */
SplitOram::Params
cachedParams(unsigned cached, unsigned slices)
{
    SplitOram::Params p = smallParams(slices, kCachedTreeLevels);
    p.tree.cachedLevels = cached;
    return p;
}

/** Every (cached levels, slices) shape the cache tests cover. */
std::vector<std::pair<unsigned, unsigned>>
cacheShapes()
{
    std::vector<std::pair<unsigned, unsigned>> out;
    for (const unsigned k : {0u, 3u, (kCachedTreeLevels + 1) / 2})
        for (const unsigned s : {2u, 4u})
            out.emplace_back(k, s);
    return out;
}

/** Arena seq of bucket (@p level, @p index) in a cachedParams tree. */
std::uint64_t
bucketSeqOf(const SplitOram::Params &p, unsigned level, std::uint64_t index)
{
    return oram::TreeLayout(p.tree.levels, p.tree.linesPerBucket())
        .bucketSeq({level, index});
}

TEST(SplitOramCached, ReadYourWritesStashBoundAndAudit)
{
    for (const auto &[k, s] : cacheShapes()) {
        const SplitOram::Params p = cachedParams(k, s);
        SplitOram oram(p, 41 + k + s);
        const std::uint64_t capacity = oram.capacityBlocks();
        std::map<Addr, std::uint64_t> shadow;
        Rng rng(43 + k * s);
        for (int i = 0; i < 3000; ++i) {
            // Every block first, so the tree fills to its top levels.
            const Addr a = i < static_cast<int>(capacity)
                               ? static_cast<Addr>(i)
                               : rng.nextBelow(capacity);
            if (i >= static_cast<int>(capacity) && rng.nextBool(0.5)) {
                const auto it = shadow.find(a);
                const BlockData want =
                    it == shadow.end() ? BlockData{} : blockOf(it->second);
                ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
                    << "k=" << k << " s=" << s << " iter " << i;
            } else {
                const std::uint64_t v = rng.next();
                const BlockData d = blockOf(v);
                oram.access(a, oram::OramOp::Write, &d);
                shadow[a] = v;
            }
            ASSERT_LE(oram.shadowStash().size(), p.tree.stashCapacity / 2)
                << "k=" << k << " s=" << s << " iter " << i;
        }
        EXPECT_LE(oram.shadowStash().maxSizeSeen(), p.tree.stashCapacity);
        EXPECT_TRUE(oram.integrityOk()) << "k=" << k << " s=" << s;

        const std::vector<std::string> violations =
            oram.auditInvariants(true);
        EXPECT_TRUE(violations.empty())
            << "k=" << k << " s=" << s << ": "
            << (violations.empty() ? "" : violations.front());

        // Every written block exactly once, with its latest value,
        // wherever it sits: cached slot, tree slot or shadow stash.
        std::map<Addr, BlockData> resident;
        for (const oram::StashEntry &e : oram.residentBlocks()) {
            EXPECT_TRUE(resident.emplace(e.addr, e.data).second)
                << "k=" << k << " s=" << s << ": block " << e.addr
                << " resident twice";
        }
        ASSERT_EQ(resident.size(), shadow.size())
            << "k=" << k << " s=" << s;
        for (const auto &[a, v] : shadow)
            EXPECT_EQ(resident[a], blockOf(v)) << "block " << a;
    }
}

TEST(SplitOramCached, EvictsAsWithEveryLevelInDram)
{
    // The cache changes where the top buckets live, not what the
    // greedy eviction does: driven with the same (addr, old leaf, new
    // leaf, op) sequence, the cached tree returns the same values and
    // keeps the same blocks under the same leaves in its shadow stash.
    for (const unsigned s : {2u, 4u}) {
        SplitOram dram(cachedParams(0, s), 7);
        SplitOram cached(cachedParams(4, s), 7);
        const LeafId leaves = cachedParams(0, s).tree.numLeaves();
        constexpr Addr kBlocks = 300;
        std::vector<LeafId> pos(kBlocks, invalidLeaf);
        Rng rng(0xcac4e + s);
        for (int i = 0; i < 2000; ++i) {
            const Addr a = rng.nextBelow(kBlocks);
            const LeafId old_leaf =
                pos[a] == invalidLeaf ? rng.nextBelow(leaves) : pos[a];
            const LeafId new_leaf = rng.nextBelow(leaves);
            const bool write = rng.nextBool(0.5);
            const BlockData v = blockOf(static_cast<std::uint64_t>(i));
            const oram::OramOp op =
                write ? oram::OramOp::Write : oram::OramOp::Read;
            pos[a] = new_leaf;
            ASSERT_EQ(dram.accessExplicit(a, old_leaf, new_leaf, op, &v),
                      cached.accessExplicit(a, old_leaf, new_leaf, op, &v))
                << "s=" << s << " access " << i;
            ASSERT_EQ(stashed(dram.shadowStash()),
                      stashed(cached.shadowStash()))
                << "s=" << s << " access " << i;
        }
        EXPECT_EQ(dram.stats().dummyAccesses, cached.stats().dummyAccesses);
        EXPECT_LT(cached.stats().channelBytes, dram.stats().channelBytes);
    }
}

TEST(SplitOramCached, TamperingAnyUncachedLevelIsDetected)
{
    // Every uncached level of the path the next access reads, in a
    // slice that varies with the level.
    const LeafId leaf = 77;
    for (const auto &[k, s] : cacheShapes()) {
        const SplitOram::Params p = cachedParams(k, s);
        for (unsigned level = k; level <= kCachedTreeLevels; ++level) {
            SplitOram oram(p, 45);
            const BlockData v = blockOf(5);
            oram.accessExplicit(0, leaf, leaf, oram::OramOp::Write, &v);
            ASSERT_TRUE(oram.integrityOk());
            oram.tamperSlice(
                level % s,
                bucketSeqOf(p, level,
                            oram::pathBucket(leaf, level, kCachedTreeLevels)
                                .index),
                level % p.tree.bucketBlocks, 3);
            oram.accessExplicit(0, leaf, leaf, oram::OramOp::Read);
            EXPECT_FALSE(oram.integrityOk())
                << "k=" << k << " s=" << s << " level " << level;
        }
    }
}

TEST(SplitOramCachedDeathTest, TamperingACachedBucketIsRefused)
{
    // A cached bucket has no share in any slice to tamper with.
    const SplitOram::Params p = cachedParams(3, 2);
    SplitOram oram(p, 47);
    EXPECT_DEATH(oram.tamperSlice(0, bucketSeqOf(p, 2, 1), 0, 0),
                 "assertion");
    EXPECT_DEATH(oram.tamperSlice(1, bucketSeqOf(p, 0, 0), 0, 0),
                 "assertion");
}

TEST(SplitOramCached, ObserverSeesOneReadPerPath)
{
    for (const auto &[k, s] : cacheShapes()) {
        SplitOram oram(cachedParams(k, s), 49);
        const LeafId leaves = cachedParams(k, s).tree.numLeaves();
        std::uint64_t reads = 0, others = 0, out_of_range = 0;
        oram.attachObserver([&](TraceEventKind kind, std::uint64_t leaf) {
            reads += kind == TraceEventKind::Read;
            others += kind != TraceEventKind::Read;
            out_of_range += leaf >= leaves;
        });
        const BlockData v = blockOf(3);
        for (Addr a = 0; a < 600; ++a) {
            oram.access(a % 211, oram::OramOp::Write, &v);
            // Background evictions are paths too.
            if (a % 10 == 0)
                oram.backgroundEvict();
        }
        EXPECT_EQ(oram.stats().dummyAccesses, 60u);
        EXPECT_EQ(reads, oram.accessCount()) << "k=" << k << " s=" << s;
        EXPECT_EQ(others, 0u);
        EXPECT_EQ(out_of_range, 0u);
    }
}

TEST(SplitOramCached, MacTagsPerAccessAreTheUncachedSlices)
{
    // One verify per slice of each uncached bucket on the path read,
    // one tag per slice on the path write: 2 * S * (L + 1 - k).
    for (const auto &[k, s] : cacheShapes()) {
        SplitOram oram(cachedParams(k, s), 51);
        crypto::CryptoTotals before;
        oram.collectCrypto(before);
        const std::uint64_t paths_before = oram.accessCount();
        const BlockData v = blockOf(9);
        for (Addr a = 0; a < 500; ++a)
            oram.access(a % 97, oram::OramOp::Write, &v);
        crypto::CryptoTotals after;
        oram.collectCrypto(after);
        const std::uint64_t paths = oram.accessCount() - paths_before;
        EXPECT_EQ(after.macTags - before.macTags,
                  std::uint64_t{2} * s * (kCachedTreeLevels + 1 - k) * paths)
            << "k=" << k << " s=" << s;
    }
}

TEST(SplitOramCached, CachedBucketsAreNeverSealed)
{
    for (const auto &[k, s] : cacheShapes()) {
        const SplitOram::Params p = cachedParams(k, s);
        SplitOram oram(p, 53);
        const BlockData v = blockOf(4);
        for (Addr a = 0; a < 400; ++a)
            oram.access(a % 150, oram::OramOp::Write, &v);
        EXPECT_TRUE(oram.integrityOk());
        // No cached bucket is sealed into any slice, not even at
        // construction, while level k's buckets are sealed once there
        // and then once per path through them.
        std::uint64_t level_k_writes = 0;
        for (unsigned j = 0; j < s; ++j) {
            for (unsigned level = 0; level < k; ++level) {
                for (std::uint64_t i = 0; i < (std::uint64_t{1} << level);
                     ++i) {
                    EXPECT_EQ(oram.sliceCounter(j, bucketSeqOf(p, level, i)),
                              0u)
                        << "k=" << k << " slice " << j << " (" << level
                        << "," << i << ")";
                }
            }
        }
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << k); ++i)
            level_k_writes += oram.sliceCounter(0, bucketSeqOf(p, k, i)) - 1;
        EXPECT_EQ(level_k_writes, oram.accessCount()) << "k=" << k;

        util::MetricsRegistry m;
        oram.exportMetrics(m, "sdimm.split");
        EXPECT_EQ(m.gauge("sdimm.split.cached_levels"),
                  static_cast<double>(k));
    }
}

} // namespace
} // namespace secdimm::sdimm

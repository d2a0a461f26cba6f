#include <gtest/gtest.h>

#include <vector>

#include "oram/bucket.hh"
#include "oram/stash.hh"
#include "util/rng.hh"

namespace secdimm::oram
{
namespace
{

BlockData
blockOf(std::uint8_t v)
{
    BlockData d{};
    d[0] = v;
    return d;
}

TEST(Stash, PutFindErase)
{
    Stash s(10);
    EXPECT_TRUE(s.put(1, 5, blockOf(1)));
    ASSERT_NE(s.find(1), nullptr);
    EXPECT_EQ(s.find(1)->leaf, 5u);
    EXPECT_TRUE(s.erase(1));
    EXPECT_EQ(s.find(1), nullptr);
    EXPECT_FALSE(s.erase(1));
}

TEST(Stash, PutOverwritesExisting)
{
    Stash s(10);
    s.put(1, 5, blockOf(1));
    s.put(1, 9, blockOf(2));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.find(1)->leaf, 9u);
    EXPECT_EQ(s.find(1)->data, blockOf(2));
}

TEST(Stash, CapacityEnforced)
{
    Stash s(2);
    EXPECT_TRUE(s.put(1, 0, blockOf(1)));
    EXPECT_TRUE(s.put(2, 0, blockOf(2)));
    EXPECT_FALSE(s.put(3, 0, blockOf(3)));
    // Overwrite of an existing key is still allowed when full.
    EXPECT_TRUE(s.put(2, 1, blockOf(9)));
}

TEST(Stash, MaxSizeSeenTracksHighWater)
{
    Stash s(10);
    s.put(1, 0, blockOf(1));
    s.put(2, 0, blockOf(2));
    s.erase(1);
    s.erase(2);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.maxSizeSeen(), 2u);
}

/** fillPath onto the path to @p path_leaf; the valid slots of each
 *  level's bucket, root first. */
std::vector<std::vector<BlockSlot>>
fill(Stash &s, LeafId path_leaf, unsigned tree_levels, unsigned z)
{
    const std::size_t img = Bucket::imageBytes(z);
    std::vector<std::uint8_t> images(img * (tree_levels + 1), 0x5a);
    s.fillPath(path_leaf, tree_levels, z, images.data());
    std::vector<std::vector<BlockSlot>> levels(tree_levels + 1);
    for (unsigned level = 0; level <= tree_levels; ++level) {
        const Bucket b = Bucket::fromImage(
            images.data() + (tree_levels - level) * img, img, z);
        for (unsigned i = 0; i < z; ++i) {
            if (b.slot(i).valid())
                levels[level].push_back(b.slot(i));
            else
                EXPECT_EQ(b.slot(i).data, BlockData{});
        }
    }
    return levels;
}

TEST(Stash, FillPathPlacesOnlyCompatible)
{
    // Tree with 3 levels; bucket at level 1 on path to leaf 5 (0b101)
    // has index 0b1: blocks with leaf in {4,5,6,7} qualify.
    Stash s(10);
    s.put(10, 5, blockOf(1)); // Compatible.
    s.put(11, 4, blockOf(2)); // Compatible.
    s.put(12, 3, blockOf(3)); // Not compatible (leaf>>2 == 0).
    const auto levels = fill(s, 5, 3, 4);
    std::size_t below_root = 0;
    for (unsigned level = 1; level <= 3; ++level) {
        for (const BlockSlot &b : levels[level]) {
            EXPECT_NE(b.addr, 12u);
            ++below_root;
        }
    }
    EXPECT_EQ(below_root, 2u);
    // Only the root can take the incompatible block.
    ASSERT_EQ(levels[0].size(), 1u);
    EXPECT_EQ(levels[0][0].addr, 12u);
    EXPECT_EQ(s.size(), 0u);
}

TEST(Stash, FillPathRespectsZ)
{
    Stash s(20);
    for (Addr a = 0; a < 18; ++a)
        s.put(a, 5, blockOf(static_cast<std::uint8_t>(a)));
    const auto levels = fill(s, 5, 3, 4); // Z=4, four buckets.
    EXPECT_EQ(levels[3].size(), 4u);      // Leaf bucket.
    for (const auto &bucket : levels)
        EXPECT_EQ(bucket.size(), 4u);
    EXPECT_EQ(s.size(), 2u);
}

TEST(Stash, EvictAtRootTakesAnything)
{
    Stash s(10);
    s.put(1, 0, blockOf(1));
    s.put(2, 7, blockOf(2));
    const auto levels = fill(s, /*path_leaf=*/3, /*tree_levels=*/3, 4);
    EXPECT_EQ(s.size(), 0u);
    // Leaf 7 shares only the root with the path to leaf 3; the root
    // is on every path.
    ASSERT_EQ(levels[0].size(), 1u);
    EXPECT_EQ(levels[0][0].addr, 2u);
    // Leaf 0 shares levels 0 and 1 and settles as deep as it may.
    ASSERT_EQ(levels[1].size(), 1u);
    EXPECT_EQ(levels[1][0].addr, 1u);
}

TEST(Stash, EvictedEntriesCarryData)
{
    Stash s(10);
    s.put(42, 6, blockOf(0xab));
    const auto levels = fill(s, 6, 3, 4);
    ASSERT_EQ(levels[3].size(), 1u);
    EXPECT_EQ(levels[3][0].addr, 42u);
    EXPECT_EQ(levels[3][0].leaf, 6u);
    EXPECT_EQ(levels[3][0].data, blockOf(0xab));
    EXPECT_EQ(s.size(), 0u);
}

/**
 * Property: on random stashes, fillPath places exactly as many blocks
 * at each level as the per-level greedy rule (fill level L, then
 * L-1, ... each bucket taking up to Z of the blocks allowed there),
 * every placed block is on its own path, and the rest stay stashed.
 */
TEST(Stash, FillPathMatchesPerLevelGreedyCounts)
{
    Rng rng(0x57a5);
    for (int trial = 0; trial < 500; ++trial) {
        const unsigned levels = 1 + static_cast<unsigned>(rng.nextBelow(10));
        const unsigned z = 1 + static_cast<unsigned>(rng.nextBelow(5));
        const std::uint64_t leaves = std::uint64_t{1} << levels;
        const LeafId path = rng.nextBelow(leaves);
        const unsigned n = static_cast<unsigned>(rng.nextBelow(80));
        Stash s(80);
        std::vector<std::pair<Addr, LeafId>> ref;
        for (Addr a = 0; a < n; ++a) {
            const LeafId leaf = rng.nextBelow(leaves);
            s.put(a, leaf, blockOf(static_cast<std::uint8_t>(a)));
            ref.emplace_back(a, leaf);
        }

        std::vector<std::size_t> expect(levels + 1);
        for (int level = static_cast<int>(levels); level >= 0; --level) {
            const unsigned shift = levels - static_cast<unsigned>(level);
            for (auto it = ref.begin();
                 it != ref.end() && expect[level] < z;) {
                if ((it->second >> shift) == (path >> shift)) {
                    ++expect[level];
                    it = ref.erase(it);
                } else {
                    ++it;
                }
            }
        }

        const auto got = fill(s, path, levels, z);
        std::size_t placed = 0;
        for (unsigned level = 0; level <= levels; ++level) {
            EXPECT_EQ(got[level].size(), expect[level])
                << "trial " << trial << " level " << level;
            const unsigned shift = levels - level;
            for (const BlockSlot &b : got[level]) {
                EXPECT_EQ(b.leaf >> shift, path >> shift);
                EXPECT_EQ(b.data, blockOf(static_cast<std::uint8_t>(b.addr)));
                EXPECT_EQ(s.find(b.addr), nullptr);
                ++placed;
            }
        }
        EXPECT_EQ(s.size(), ref.size());
        EXPECT_EQ(placed + s.size(), n);
        for (const StashEntry &e : s.entries())
            EXPECT_EQ(s.find(e.addr), &e);
    }
}

} // namespace
} // namespace secdimm::oram

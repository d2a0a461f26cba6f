/**
 * @file
 * Path ORAM tree indexing and the row-buffer-friendly subtree-packed
 * physical layout (Ren et al. [10], used by the paper's baseline and
 * SDIMM designs).
 *
 * The binary tree is re-organized as a tree of small subtrees of
 * `subtreeLevels` levels each; all buckets of a subtree occupy
 * consecutive 64-byte lines, so reading a path touches one open row
 * per subtree instead of one per bucket.
 */

#ifndef SECUREDIMM_ORAM_TREE_LAYOUT_HH
#define SECUREDIMM_ORAM_TREE_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace secdimm::oram
{

/** Identifies one bucket by tree level and index within the level. */
struct BucketPos
{
    unsigned level = 0;
    std::uint64_t index = 0;

    bool
    operator==(const BucketPos &o) const
    {
        return level == o.level && index == o.index;
    }
};

/** Bucket on the path from the root to @p leaf at @p level. */
inline BucketPos
pathBucket(LeafId leaf, unsigned level, unsigned tree_levels)
{
    return BucketPos{level, leaf >> (tree_levels - level)};
}

/** Level-order (BFS) sequence number of a bucket. */
inline std::uint64_t
bucketSeqBfs(const BucketPos &b)
{
    return ((std::uint64_t{1} << b.level) - 1) + b.index;
}

/** Subtree-packed linear layout of a tree's buckets onto lines. */
class TreeLayout
{
  public:
    /**
     * @param tree_levels    leaf level L (levels 0..L exist)
     * @param lines_per_bucket   64-byte lines per bucket
     * @param subtree_levels levels per packed subtree (>= 1)
     */
    TreeLayout(unsigned tree_levels, unsigned lines_per_bucket,
               unsigned subtree_levels = 4);

    /** Packed sequence number of a bucket (0 .. numBuckets-1). */
    std::uint64_t bucketSeq(const BucketPos &b) const;

    /** First line address of a bucket. */
    Addr
    bucketLineAddr(const BucketPos &b) const
    {
        return bucketSeq(b) * linesPerBucket_;
    }

    /** Total lines the tree occupies. */
    Addr
    totalLines() const
    {
        return totalBuckets_ * linesPerBucket_;
    }

    unsigned treeLevels() const { return treeLevels_; }
    unsigned linesPerBucket() const { return linesPerBucket_; }
    unsigned subtreeLevels() const { return subtreeLevels_; }
    std::uint64_t numBuckets() const { return totalBuckets_; }

    /** Packed sequence numbers of every bucket in levels
     *  [0, @p levels), ascending: the ORAM cache's buckets, so a
     *  constructor can skip them while it walks the store in arena
     *  order. */
    std::vector<std::uint64_t> seqsAbove(unsigned levels) const;

    /**
     * Append the line addresses of every bucket on the path to
     * @p leaf, for levels [first_level, L], to @p out.
     */
    void pathLines(LeafId leaf, unsigned first_level,
                   std::vector<Addr> &out) const;

    /**
     * Same lines split into the metadata lines (the last
     * @p meta_lines of each bucket) and the data lines.  ORAM
     * controllers fetch metadata first: it identifies the requested
     * block, enabling the early response that decouples access
     * latency from path bandwidth.
     */
    void pathLinesPhased(LeafId leaf, unsigned first_level,
                         unsigned meta_lines, std::vector<Addr> &meta,
                         std::vector<Addr> &data) const;

  private:
    unsigned treeLevels_;
    unsigned linesPerBucket_;
    unsigned subtreeLevels_;
    std::uint64_t totalBuckets_;

    /** Cumulative bucket count before each super-level's subtrees. */
    std::vector<std::uint64_t> superBase_;
    /** Buckets per subtree in each super-level. */
    std::vector<std::uint64_t> superSize_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_TREE_LAYOUT_HH

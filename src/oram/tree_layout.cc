#include "oram/tree_layout.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::oram
{

TreeLayout::TreeLayout(unsigned tree_levels, unsigned lines_per_bucket,
                       unsigned subtree_levels)
    : treeLevels_(tree_levels),
      linesPerBucket_(lines_per_bucket),
      subtreeLevels_(subtree_levels)
{
    SD_ASSERT(subtree_levels >= 1);
    SD_ASSERT(lines_per_bucket >= 1);
    totalBuckets_ = (std::uint64_t{1} << (tree_levels + 1)) - 1;

    const unsigned total_levels = tree_levels + 1;
    std::uint64_t base = 0;
    for (unsigned first = 0; first < total_levels;
         first += subtreeLevels_) {
        const unsigned height =
            std::min(subtreeLevels_, total_levels - first);
        const std::uint64_t size = (std::uint64_t{1} << height) - 1;
        superBase_.push_back(base);
        superSize_.push_back(size);
        const std::uint64_t roots = std::uint64_t{1} << first;
        base += roots * size;
    }
    SD_ASSERT(base == totalBuckets_);
}

std::uint64_t
TreeLayout::bucketSeq(const BucketPos &b) const
{
    SD_ASSERT(b.level <= treeLevels_);
    SD_ASSERT(b.index < (std::uint64_t{1} << b.level));
    const unsigned super = b.level / subtreeLevels_;
    const unsigned depth = b.level - super * subtreeLevels_;
    const std::uint64_t root = b.index >> depth;
    const std::uint64_t local_in_level =
        b.index & ((std::uint64_t{1} << depth) - 1);
    const std::uint64_t local =
        ((std::uint64_t{1} << depth) - 1) + local_in_level;
    return superBase_[super] + root * superSize_[super] + local;
}

std::vector<std::uint64_t>
TreeLayout::seqsAbove(unsigned levels) const
{
    std::vector<std::uint64_t> seqs;
    for (unsigned level = 0; level < levels; ++level) {
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << level); ++i)
            seqs.push_back(bucketSeq({level, i}));
    }
    std::sort(seqs.begin(), seqs.end());
    return seqs;
}

void
TreeLayout::pathLines(LeafId leaf, unsigned first_level,
                      std::vector<Addr> &out) const
{
    for (unsigned level = first_level; level <= treeLevels_; ++level) {
        const Addr base =
            bucketLineAddr(pathBucket(leaf, level, treeLevels_));
        for (unsigned line = 0; line < linesPerBucket_; ++line)
            out.push_back(base + line);
    }
}

void
TreeLayout::pathLinesPhased(LeafId leaf, unsigned first_level,
                            unsigned meta_lines, std::vector<Addr> &meta,
                            std::vector<Addr> &data) const
{
    SD_ASSERT(meta_lines <= linesPerBucket_);
    const unsigned data_lines = linesPerBucket_ - meta_lines;
    for (unsigned level = first_level; level <= treeLevels_; ++level) {
        const Addr base =
            bucketLineAddr(pathBucket(leaf, level, treeLevels_));
        for (unsigned line = 0; line < data_lines; ++line)
            data.push_back(base + line);
        for (unsigned line = data_lines; line < linesPerBucket_; ++line)
            meta.push_back(base + line);
    }
}

} // namespace secdimm::oram

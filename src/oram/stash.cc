#include "oram/stash.hh"

#include <cstring>

#include "oram/bucket.hh"

namespace secdimm::oram
{

void
Stash::fillPath(LeafId path_leaf, unsigned tree_levels, unsigned z,
                std::uint8_t *images)
{
    const std::size_t img = Bucket::imageBytes(z);
    evict(path_leaf, tree_levels, z,
          [&](unsigned level, std::span<const StashEntry *const> fill) {
              std::uint8_t *meta = images + (tree_levels - level) * img;
              std::uint8_t *data = meta + Bucket::metadataBytes(z);
              for (unsigned slot = 0; slot < z; ++slot) {
                  Addr addr = invalidAddr;
                  LeafId leaf = invalidLeaf;
                  if (slot < fill.size()) {
                      const StashEntry &e = *fill[slot];
                      addr = e.addr;
                      leaf = e.leaf;
                      std::memcpy(data + blockBytes * slot, e.data.data(),
                                  blockBytes);
                  } else {
                      std::memset(data + blockBytes * slot, 0, blockBytes);
                  }
                  std::memcpy(meta + 16 * slot, &addr, 8);
                  std::memcpy(meta + 16 * slot + 8, &leaf, 8);
              }
          });
}

} // namespace secdimm::oram

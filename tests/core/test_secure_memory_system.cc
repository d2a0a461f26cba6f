#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "core/secure_memory_system.hh"

namespace secdimm::core
{
namespace
{

using Protocol = SecureMemorySystem::Protocol;

SecureMemorySystem::Options
opts(Protocol p, std::uint64_t capacity = 64 << 10)
{
    SecureMemorySystem::Options o;
    o.protocol = p;
    o.capacityBytes = capacity;
    o.numSdimms = 2;
    o.seed = 5;
    return o;
}

class AllProtocols : public ::testing::TestWithParam<Protocol>
{
};

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocols,
    ::testing::Values(Protocol::PathOram, Protocol::Freecursive,
                      Protocol::Independent, Protocol::Split,
                      Protocol::IndepSplit),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        switch (info.param) {
          case Protocol::PathOram: return "PathOram";
          case Protocol::Freecursive: return "Freecursive";
          case Protocol::Independent: return "Independent";
          case Protocol::Split: return "Split";
          case Protocol::IndepSplit: return "IndepSplit";
        }
        return "unknown";
    });

TEST_P(AllProtocols, CapacityAtLeastRequested)
{
    SecureMemorySystem mem(opts(GetParam(), 100000));
    EXPECT_GE(mem.capacityBytes(), 100000u);
}

TEST_P(AllProtocols, BlockRoundTrip)
{
    SecureMemorySystem mem(opts(GetParam()));
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<std::uint8_t>(i * 3);
    mem.writeBlock(17, d);
    EXPECT_EQ(mem.readBlock(17), d);
    EXPECT_TRUE(mem.integrityOk());
}

TEST_P(AllProtocols, ByteGranularReadWrite)
{
    SecureMemorySystem mem(opts(GetParam()));
    const std::string msg = "the secret crosses a block boundary!";
    // Unaligned, spans two blocks.
    mem.write(60, msg.data(), msg.size());
    std::string got(msg.size(), '\0');
    mem.read(60, got.data(), got.size());
    EXPECT_EQ(got, msg);
}

TEST_P(AllProtocols, PartialWritePreservesNeighbors)
{
    SecureMemorySystem mem(opts(GetParam()));
    BlockData base;
    base.fill(0xaa);
    mem.writeBlock(2, base);
    const std::uint8_t patch[4] = {1, 2, 3, 4};
    mem.write(2 * blockBytes + 10, patch, sizeof(patch));
    const BlockData after = mem.readBlock(2);
    EXPECT_EQ(after[9], 0xaa);
    EXPECT_EQ(after[10], 1);
    EXPECT_EQ(after[13], 4);
    EXPECT_EQ(after[14], 0xaa);
}

TEST_P(AllProtocols, UninitializedReadsZero)
{
    SecureMemorySystem mem(opts(GetParam()));
    std::uint64_t v = 123;
    mem.read(4096, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
}

TEST_P(AllProtocols, AccessCountGrows)
{
    SecureMemorySystem mem(opts(GetParam()));
    const auto before = mem.accessCount();
    BlockData d{};
    mem.writeBlock(0, d);
    mem.readBlock(0);
    EXPECT_GE(mem.accessCount(), before + 2);
}

TEST_P(AllProtocols, ManyMixedOperations)
{
    SecureMemorySystem mem(opts(GetParam(), 32 << 10));
    const Addr blocks = mem.capacityBytes() / blockBytes;
    for (Addr a = 0; a < std::min<Addr>(blocks, 100); ++a) {
        BlockData d{};
        d[0] = static_cast<std::uint8_t>(a);
        d[63] = static_cast<std::uint8_t>(a ^ 0xff);
        mem.writeBlock(a, d);
    }
    for (Addr a = 0; a < std::min<Addr>(blocks, 100); ++a) {
        const BlockData d = mem.readBlock(a);
        EXPECT_EQ(d[0], static_cast<std::uint8_t>(a));
        EXPECT_EQ(d[63], static_cast<std::uint8_t>(a ^ 0xff));
    }
    EXPECT_TRUE(mem.integrityOk());
}

TEST(SecureMemorySystem, IndepSplitWithFourGroups)
{
    auto o = opts(Protocol::IndepSplit);
    o.numSdimms = 4; // Four Independent groups of two slices each.
    o.slicesPerGroup = 2;
    SecureMemorySystem mem(o);
    const char msg[] = "four groups, two slices each";
    mem.write(0, msg, sizeof(msg));
    char got[sizeof(msg)];
    mem.read(0, got, sizeof(got));
    EXPECT_EQ(std::memcmp(got, msg, sizeof(msg)), 0);
    EXPECT_TRUE(mem.integrityOk());
    EXPECT_TRUE(mem.auditNow().ok());
}

TEST(SecureMemorySystem, IndepSplitExportsGroupMetrics)
{
    SecureMemorySystem mem(opts(Protocol::IndepSplit));
    BlockData d{};
    mem.writeBlock(3, d);
    mem.readBlock(3);
    const auto m = mem.metrics();
    EXPECT_GT(m.counter("sdimm.indep_split.g0.accesses") +
                  m.counter("sdimm.indep_split.g0.dummy_accesses"),
              0u);
    EXPECT_GT(m.counter("sdimm.indep_split.appends_real") +
                  m.counter("sdimm.indep_split.appends_dummy"),
              0u);
}

TEST(SecureMemorySystem, SplitWithFourSlices)
{
    auto o = opts(Protocol::Split);
    o.numSdimms = 4;
    SecureMemorySystem mem(o);
    const char msg[] = "four-way slicing";
    mem.write(0, msg, sizeof(msg));
    char got[sizeof(msg)];
    mem.read(0, got, sizeof(got));
    EXPECT_EQ(std::memcmp(got, msg, sizeof(msg)), 0);
}

TEST(SecureMemorySystem, PathOramAndSplitCacheTheirTopLevels)
{
    // The ORAM cache: 7 top levels, capped at half the tree's levels.
    // 64 KiB is a 10-level tree (cap 5), 4 MiB a 16-level one (7).
    // The other protocols keep every level in DRAM.
    const std::pair<std::uint64_t, double> cases[] = {{64 << 10, 5.0},
                                                      {4 << 20, 7.0}};
    for (const auto &[capacity, cached] : cases) {
        EXPECT_EQ(SecureMemorySystem(opts(Protocol::PathOram, capacity))
                      .metrics()
                      .gauge("oram.data.cached_levels"),
                  cached);
        EXPECT_EQ(SecureMemorySystem(opts(Protocol::Split, capacity))
                      .metrics()
                      .gauge("sdimm.split.cached_levels"),
                  cached);
    }
    EXPECT_EQ(SecureMemorySystem(opts(Protocol::Independent))
                  .metrics()
                  .gauge("sdimm.buf0.oram.cached_levels"),
              0.0);
    EXPECT_EQ(SecureMemorySystem(opts(Protocol::IndepSplit))
                  .metrics()
                  .gauge("sdimm.indep_split.g0.cached_levels"),
              0.0);
}

} // namespace
} // namespace secdimm::core

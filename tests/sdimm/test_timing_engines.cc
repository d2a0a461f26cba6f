/**
 * @file
 * Unit tests of the timing engines underneath the SDIMM backends:
 * the byte-granular LinkBus, the per-SDIMM PathExecutor, and the
 * SplitGroupEngine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sdimm/link_bus.hh"
#include "sdimm/path_executor.hh"
#include "sdimm/split_engine.hh"

namespace secdimm::sdimm
{
namespace
{

dram::Geometry
smallGeom()
{
    dram::Geometry g;
    g.channels = 1;
    g.ranksPerChannel = 4;
    g.banksPerRank = 8;
    g.rowsPerBank = 4096;
    return g;
}

oram::OramParams
smallTree(unsigned levels = 10, unsigned cached = 3)
{
    oram::OramParams p;
    p.levels = levels;
    p.cachedLevels = cached;
    return p;
}

// ------------------------------- LinkBus ------------------------- //

TEST(LinkBus, SerializesTransfers)
{
    LinkBus bus(dram::ddr3_1600());
    const Tick t1 = bus.transferLines(0, 1);
    EXPECT_EQ(t1, 4u); // One 64B burst = tBURST.
    const Tick t2 = bus.transferLines(0, 1); // Arrives "late".
    EXPECT_EQ(t2, 8u);
    const Tick t3 = bus.transferLines(100, 2);
    EXPECT_EQ(t3, 108u);
}

TEST(LinkBus, ByteGranularityWithBurstChopFloor)
{
    LinkBus bus(dram::ddr3_1600());
    // 16 bytes/cycle, BC4 floor of 2 cycles.
    EXPECT_EQ(bus.transferBytes(0, 8), 2u);
    EXPECT_EQ(bus.transferBytes(0, 40), 2u + 3u);
    EXPECT_EQ(bus.transferBytes(0, 64), 5u + 4u);
}

TEST(LinkBus, ShortCommandsAndProbesCounted)
{
    LinkBus bus(dram::ddr3_1600());
    bus.shortCommand(0);
    bus.shortCommand(0, /*is_probe=*/true);
    bus.shortCommand(0, true);
    EXPECT_EQ(bus.stats().shortCmds, 3u);
    EXPECT_EQ(bus.stats().probes, 2u);
}

TEST(LinkBus, StatsTrackBytesAndLineEquivalents)
{
    LinkBus bus(dram::ddr3_1600());
    bus.transferBytes(0, 96);
    bus.transferBytes(0, 32);
    EXPECT_EQ(bus.stats().dataBytes, 128u);
    EXPECT_DOUBLE_EQ(bus.stats().lineEquivalents(), 2.0);
    EXPECT_EQ(bus.stats().transfers, 2u);
}

// ---------------------------- PathExecutor ----------------------- //

struct ExecHarness
{
    PathExecutor exec;
    std::vector<std::pair<std::uint64_t, Tick>> done;

    explicit ExecHarness(bool low_power,
                         oram::OramParams tree = smallTree())
        : exec("x", tree, dram::ddr3_1600(), smallGeom(), low_power, 7)
    {
        exec.setOpDoneCallback([this](std::uint64_t tag, Tick avail) {
            done.emplace_back(tag, avail);
        });
    }

    void
    drain()
    {
        while (!exec.idle()) {
            const Tick next = exec.nextEventAt();
            ASSERT_NE(next, tickNever);
            exec.advanceTo(next);
        }
    }
};

TEST(PathExecutor, OpsCompleteInSubmissionOrder)
{
    ExecHarness h(false);
    for (std::uint64_t tag = 1; tag <= 5; ++tag)
        h.exec.submitOp(tag, 0);
    h.drain();
    ASSERT_EQ(h.done.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(h.done[i].first, i + 1);
        if (i > 0) {
            EXPECT_GT(h.done[i].second, h.done[i - 1].second);
        }
    }
    EXPECT_EQ(h.exec.opsExecuted(), 5u);
}

TEST(PathExecutor, OpMovesWholePathBothWays)
{
    ExecHarness h(false);
    h.exec.submitOp(1, 0);
    h.drain();
    const auto &s = h.exec.channel().stats();
    const oram::OramParams p = smallTree();
    const std::uint64_t lines_per_path =
        p.linesPerBucket() * p.dramLevels();
    EXPECT_EQ(s.reads, lines_per_path);
    EXPECT_EQ(s.writes, lines_per_path);
}

TEST(PathExecutor, RespectsReadyAt)
{
    ExecHarness h(false);
    h.exec.submitOp(1, 5000);
    h.drain();
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_GT(h.done[0].second, 5000u);
}

TEST(PathExecutor, LowPowerOpTouchesExactlyOneRank)
{
    // Section III-E: a single accessORAM engages one rank, so its
    // whole read+write stream pays zero rank-to-rank switches.
    oram::OramParams tree = smallTree(10, 2);
    ExecHarness h(true, tree);
    h.exec.submitOp(1, 0);
    h.drain();
    EXPECT_EQ(h.exec.channel().stats().rankSwitches, 0u);
    EXPECT_EQ(h.exec.channel().stats().reads,
              h.exec.channel().stats().writes);
}

TEST(PathExecutor, LowPowerEventuallyPowersDownIdleRanks)
{
    ExecHarness h(true);
    h.exec.submitOp(1, 0);
    h.drain();
    // Idle long past the power-down threshold.
    const Tick end = h.exec.channel().curTick() + 3000;
    h.exec.advanceTo(end);
    h.exec.channel().finalizeStats(end);
    std::uint64_t pd = 0;
    for (const auto &r : h.exec.channel().rankStates())
        pd += r.cyclesPowerDown;
    EXPECT_GT(pd, 0u);
}

// --------------------------- SplitGroupEngine -------------------- //

struct GroupHarness
{
    dram::TimingParams timing = dram::ddr3_1600();
    LinkBus bus0{timing}, bus1{timing};
    SplitGroupEngine eng;
    std::vector<std::pair<std::uint64_t, Tick>> done;

    explicit GroupHarness(unsigned slices,
                          oram::OramParams tree = smallTree())
        : eng("g", tree, slices, busesFor(slices), timing, smallGeom(),
              false, 5)
    {
        eng.setOpDoneCallback([this](std::uint64_t tag, Tick result) {
            done.emplace_back(tag, result);
        });
    }

    std::vector<LinkBus *>
    busesFor(unsigned slices)
    {
        std::vector<LinkBus *> buses;
        for (unsigned i = 0; i < slices; ++i)
            buses.push_back(i % 2 ? &bus1 : &bus0);
        return buses;
    }

    void
    drain()
    {
        while (!eng.idle()) {
            const Tick next = eng.nextEventAt();
            ASSERT_NE(next, tickNever);
            eng.advanceTo(next);
        }
    }
};

TEST(SplitGroupEngine, SliceLineCountsMatchSplitWidth)
{
    GroupHarness h2(2);
    EXPECT_EQ(h2.eng.dataLinesPerBucket(), 2u); // Z=4 over 2 slices.
    EXPECT_EQ(h2.eng.linesPerBucketSlice(), 3u);
    GroupHarness h4(4);
    EXPECT_EQ(h4.eng.dataLinesPerBucket(), 1u);
    EXPECT_EQ(h4.eng.linesPerBucketSlice(), 2u);
}

TEST(SplitGroupEngine, OpsComplete)
{
    GroupHarness h(2);
    for (std::uint64_t tag = 1; tag <= 4; ++tag)
        h.eng.submitOp(tag, 0);
    h.drain();
    ASSERT_EQ(h.done.size(), 4u);
    EXPECT_EQ(h.eng.opsExecuted(), 4u);
}

TEST(SplitGroupEngine, EverySliceMovesItsShare)
{
    GroupHarness h(2);
    h.eng.submitOp(1, 0);
    h.drain();
    const oram::OramParams p = smallTree();
    const std::uint64_t per_slice =
        static_cast<std::uint64_t>(h.eng.linesPerBucketSlice()) *
        p.dramLevels();
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_EQ(h.eng.sliceChannel(s).stats().reads, per_slice);
        EXPECT_EQ(h.eng.sliceChannel(s).stats().writes, per_slice);
    }
}

TEST(SplitGroupEngine, MetadataRelaysOnTheBus)
{
    GroupHarness h(2);
    h.eng.submitOp(1, 0);
    h.drain();
    // Per slice: FETCH_DATA short + 1 FETCH_STASH short; metadata
    // shares + block piece + list as data transfers.
    EXPECT_GE(h.bus0.stats().shortCmds, 2u);
    EXPECT_GT(h.bus0.stats().dataBytes, 0u);
    EXPECT_GT(h.bus1.stats().dataBytes, 0u);
}

TEST(SplitGroupEngine, ResultPrecedesFullPathRead)
{
    // The early response is the point of Split: the result must not
    // wait for the write-back (and typically not for the data pass).
    GroupHarness h(2);
    h.eng.submitOp(1, 0);
    h.drain();
    ASSERT_EQ(h.done.size(), 1u);
    Tick read_end = 0;
    for (unsigned s = 0; s < 2; ++s)
        read_end = std::max(read_end,
                            h.eng.sliceChannel(s).curTick());
    EXPECT_LT(h.done[0].second, read_end);
}

TEST(SplitGroupEngine, WiderSplitShortensTheDataPhase)
{
    // The response latency is metadata-bound (similar for both
    // widths); what widening buys is a shorter data/write phase per
    // slice -- i.e., group throughput.
    GroupHarness h2(2), h4(4);
    h2.eng.submitOp(1, 0);
    h4.eng.submitOp(1, 0);
    h2.drain();
    h4.drain();
    Tick end2 = 0, end4 = 0;
    for (unsigned s = 0; s < 2; ++s)
        end2 = std::max(end2, h2.eng.sliceChannel(s).curTick());
    for (unsigned s = 0; s < 4; ++s)
        end4 = std::max(end4, h4.eng.sliceChannel(s).curTick());
    EXPECT_LT(end4, end2);
}

} // namespace
} // namespace secdimm::sdimm

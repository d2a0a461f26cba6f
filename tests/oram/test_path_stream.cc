/**
 * @file
 * PathStream over a real DRAM channel: the two-pass read order, the
 * write-back order, the Split data-pass hold, and the read/idle
 * bookkeeping when one op's write-back overlaps the next op's reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "dram/channel.hh"
#include "oram/path_stream.hh"

namespace secdimm::oram
{
namespace
{

using Line = PathStream::Line;

std::vector<Addr>
lines(Addr first, std::size_t n)
{
    std::vector<Addr> v(n);
    std::iota(v.begin(), v.end(), first);
    return v;
}

/** One channel and its stream, pumped the way the engines pump. */
struct StreamHarness
{
    struct Cas
    {
        Line kind;
        Addr line;
        Tick at;
    };

    dram::DramChannel channel;
    PathStream stream;
    /** Every issued CAS, in issue order. */
    std::vector<Cas> issued;
    /** Completion ticks of metadata reads. */
    std::vector<Tick> metaDone;
    std::function<void(Line)> onComplete;

    StreamHarness(bool hold, dram::SchedPolicy policy)
        : channel("stream", dram::ddr3_1600(), geometry(),
                  dram::MapPolicy::RowRankBankCol, policy),
          stream(channel, std::uint64_t{1} << 63, hold)
    {
        channel.setCasObserver(
            [this](const dram::DramRequest &r, Tick data_end) {
                issued.push_back(Cas{kindOf(r.id), r.addr, data_end});
            });
        channel.setCompletionCallback([this](const dram::DramCompletion &c) {
            const Line kind = stream.complete(c);
            if (kind == Line::Meta)
                metaDone.push_back(c.doneAt);
            if (onComplete)
                onComplete(kind);
            stream.pump();
        });
    }

    static dram::Geometry
    geometry()
    {
        dram::Geometry g;
        g.ranksPerChannel = 2;
        g.banksPerRank = 8;
        g.rowsPerBank = 1024;
        return g;
    }

    static Line
    kindOf(std::uint64_t id)
    {
        return static_cast<Line>(id & ~(std::uint64_t{1} << 63));
    }

    template <typename Pred>
    void
    runUntil(Pred done)
    {
        while (!done()) {
            const Tick next = channel.nextEventAt();
            ASSERT_NE(next, tickNever);
            channel.advanceTo(next);
            stream.pump();
        }
    }

    void
    drain()
    {
        runUntil([this] { return stream.idle() && channel.idle(); });
    }
};

TEST(PathStream, MetadataReadsIssueBeforeDataReads)
{
    // FCFS issues in queue order, so the CAS order is the stream's
    // enqueue order.
    StreamHarness h(false, dram::SchedPolicy::Fcfs);
    h.stream.stageReads(lines(4000, 10), lines(0, 40), 0);
    h.stream.pump();
    h.drain();

    ASSERT_EQ(h.issued.size(), 50u);
    for (std::size_t i = 0; i < h.issued.size(); ++i) {
        EXPECT_EQ(h.issued[i].kind, i < 10 ? Line::Meta : Line::Data)
            << "CAS " << i;
    }
    EXPECT_EQ(h.metaDone.size(), 10u);
}

TEST(PathStream, WriteBackIssuesDataBeforeMetadata)
{
    StreamHarness h(false, dram::SchedPolicy::Fcfs);
    const std::vector<Addr> meta = lines(4000, 5);
    h.stream.stageWriteBack(meta, lines(0, 20), 0);
    h.stream.pump();
    h.drain();

    ASSERT_EQ(h.issued.size(), 25u);
    for (std::size_t i = 0; i < h.issued.size(); ++i) {
        EXPECT_EQ(h.issued[i].kind, Line::Write);
        EXPECT_EQ(h.issued[i].line >= 4000, i >= 20) << "CAS " << i;
    }
}

TEST(PathStream, HeldDataPassWaitsForEveryMetadataRead)
{
    StreamHarness h(true, dram::SchedPolicy::FrFcfs);
    h.stream.stageReads(lines(4000, 12), lines(0, 60), 0);
    h.stream.pump();
    // Only the metadata pass is in the channel.
    EXPECT_EQ(h.channel.readQueueSize(), 12u);
    h.runUntil([&] { return h.stream.metaDone(); });
    EXPECT_FALSE(h.stream.readsDone());
    h.drain();

    ASSERT_EQ(h.metaDone.size(), 12u);
    const Tick last_meta =
        *std::max_element(h.metaDone.begin(), h.metaDone.end());
    std::size_t data = 0;
    for (const auto &cas : h.issued) {
        if (cas.kind == Line::Data) {
            ++data;
            EXPECT_GT(cas.at, last_meta);
        }
    }
    EXPECT_EQ(data, 60u);
}

TEST(PathStream, UnheldDataPassFollowsAsQueueRoomAllows)
{
    StreamHarness h(false, dram::SchedPolicy::FrFcfs);
    h.stream.stageReads(lines(4000, 12), lines(0, 100), 0);
    h.stream.pump();
    // Data reads fill the read queue behind the metadata reads
    // before any metadata read has completed.
    EXPECT_TRUE(h.metaDone.empty());
    EXPECT_GT(h.channel.readQueueSize(), 12u);
    EXPECT_FALSE(h.channel.canEnqueue(false));
    h.drain();
    EXPECT_EQ(h.issued.size(), 112u);
}

TEST(PathStream, ReadAndIdleBookkeepingAcrossOverlappingOps)
{
    StreamHarness h(false, dram::SchedPolicy::FrFcfs);
    EXPECT_TRUE(h.stream.readsDone());
    EXPECT_TRUE(h.stream.idle());

    // Op A: read its path.
    const std::vector<Addr> meta_a = lines(4000, 6);
    const std::vector<Addr> data_a = lines(0, 24);
    h.stream.stageReads(meta_a, data_a, 0);
    EXPECT_FALSE(h.stream.readsDone());
    EXPECT_FALSE(h.stream.metaDone());
    h.stream.pump();
    h.runUntil([&] { return h.stream.readsDone(); });
    EXPECT_TRUE(h.stream.metaDone());
    const Tick a_done = h.stream.lastReadDone();
    EXPECT_GT(a_done, 0u);

    // Write A back while op B reads, as the engines do: the
    // write-back becomes visible a re-encryption after A's reads.
    std::size_t writes_left_at_b_done = 0;
    std::size_t writes_done = 0;
    std::size_t b_reads = 0;
    Tick b_reads_max = 0;
    h.onComplete = [&](Line kind) {
        if (kind == Line::Write)
            ++writes_done;
        else
            ++b_reads;
    };
    const std::size_t b_first_cas = h.issued.size();
    h.stream.stageWriteBack(meta_a, data_a, a_done + 2000);
    // B may start before A's last read burst ends (a completion is
    // delivered when its burst is scheduled); lastReadDone() restarts.
    const Tick b_start = a_done / 2;
    h.stream.stageReads(lines(5000, 6), lines(1000, 24), b_start);
    EXPECT_EQ(h.stream.lastReadDone(), b_start);
    EXPECT_FALSE(h.stream.readsDone());
    EXPECT_FALSE(h.stream.idle());
    h.stream.pump();
    h.runUntil([&] { return h.stream.readsDone(); });
    writes_left_at_b_done = 30 - writes_done;
    for (std::size_t i = b_first_cas; i < h.issued.size(); ++i) {
        if (h.issued[i].kind != Line::Write)
            b_reads_max = std::max(b_reads_max, h.issued[i].at);
    }

    // B's reads are done while A's write-back is still in flight.
    EXPECT_EQ(b_reads, 30u);
    EXPECT_EQ(h.stream.lastReadDone(), b_reads_max);
    EXPECT_GT(writes_left_at_b_done, 0u);
    EXPECT_FALSE(h.stream.idle());

    h.drain();
    EXPECT_EQ(writes_done, 30u);
    EXPECT_TRUE(h.stream.readsDone());
    EXPECT_TRUE(h.stream.idle());
}

} // namespace
} // namespace secdimm::oram

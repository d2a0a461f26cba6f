#include <gtest/gtest.h>

#include <map>

#include "fault/fault_injector.hh"
#include "sdimm/indep_split_oram.hh"

namespace secdimm::sdimm
{
namespace
{

IndepSplitOram::Params
smallParams(unsigned groups = 2, unsigned slices = 2,
            unsigned levels = 6)
{
    IndepSplitOram::Params p;
    p.perGroupTree.levels = levels;
    p.perGroupTree.stashCapacity = 200;
    p.groups = groups;
    p.slicesPerGroup = slices;
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

TEST(IndepSplitOram, ReadYourWrites)
{
    IndepSplitOram oram(smallParams(), 1);
    const BlockData v = blockOf(0xabcdef0123456789ULL);
    oram.access(9, oram::OramOp::Write, &v);
    EXPECT_EQ(oram.access(9, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(IndepSplitOram, BlocksMigrateBetweenGroupsAndSurvive)
{
    IndepSplitOram oram(smallParams(), 3);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(5);
    for (int i = 0; i < 250; ++i) {
        const Addr a = rng.nextBelow(capacity);
        if (rng.nextBool(0.5)) {
            const std::uint64_t v = rng.next();
            const BlockData d = blockOf(v);
            oram.access(a, oram::OramOp::Write, &d);
            expected[a] = v;
        } else {
            const auto it = expected.find(a);
            const BlockData want =
                it == expected.end() ? BlockData{} : blockOf(it->second);
            ASSERT_EQ(oram.access(a, oram::OramOp::Read), want)
                << "addr " << a << " iter " << i;
        }
    }
    EXPECT_TRUE(oram.integrityOk());
}

TEST(IndepSplitOram, FourGroupsBySlices)
{
    IndepSplitOram oram(smallParams(4, 4, 5), 7);
    const BlockData v = blockOf(42);
    for (Addr a = 0; a < 40; ++a)
        oram.access(a, oram::OramOp::Write, &v);
    for (Addr a = 0; a < 40; ++a)
        EXPECT_EQ(oram.access(a, oram::OramOp::Read), v);
}

TEST(IndepSplitOram, AppendsCoverEveryGroupEveryAccess)
{
    IndepSplitOram oram(smallParams(), 9);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    std::vector<int> appends(2, 0), accesses(2, 0);
    oram.attachObserver([&](TraceEventKind, std::uint64_t a) {
        const auto type = static_cast<SdimmCommandType>(a >> 8);
        if (type == SdimmCommandType::Append)
            ++appends[a & 0xff];
        else if (type == SdimmCommandType::Access)
            ++accesses[a & 0xff];
    });
    const int n = 60;
    for (int i = 0; i < n; ++i)
        oram.access(0, oram::OramOp::Read);
    EXPECT_EQ(appends[0], n);
    EXPECT_EQ(appends[1], n);
    EXPECT_EQ(accesses[0] + accesses[1], n);
    // Hammering one address spreads ACCESSes over groups uniformly.
    EXPECT_GT(accesses[0], n / 4);
    EXPECT_GT(accesses[1], n / 4);
}

TEST(IndepSplitOram, GroupLeafTracesStayUniform)
{
    IndepSplitOram oram(smallParams(2, 2, 7), 11);
    std::vector<LeafId> traces[2];
    for (unsigned g = 0; g < 2; ++g) {
        oram.group(g).attachObserver(
            [&trace = traces[g]](TraceEventKind, std::uint64_t leaf) {
                trace.push_back(leaf);
            });
    }
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    for (int i = 0; i < 300; ++i)
        oram.access(0, oram::OramOp::Read);
    for (unsigned g = 0; g < 2; ++g) {
        const std::vector<LeafId> &trace = traces[g];
        ASSERT_GT(trace.size(), 50u);
        std::vector<int> bins(8, 0);
        for (LeafId l : trace)
            ++bins[l % 8];
        const double expect =
            static_cast<double>(trace.size()) / bins.size();
        double chi2 = 0;
        for (int b : bins)
            chi2 += (b - expect) * (b - expect) / expect;
        EXPECT_LT(chi2, 30.0) << "group " << g;
    }
}

TEST(IndepSplitOram, GroupQuarantineEvacuatesAndServesFromSurvivor)
{
    // Kill group 0 at boot under Degraded: the whole 2-slice group is
    // lifted out of service as one unit, its live blocks land in
    // group 1, and reads keep coming back bit-exact.
    IndepSplitOram oram(smallParams(2, 2, 5), 17);
    fault::FaultInjector inj(fault::FaultPlan::stuckAt(0, 41));
    oram.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);
    // The quarantined group still sees its shaped APPEND slot in every
    // access (dummy traffic): its share of the trace must not vanish.
    std::uint64_t appends_to_dead = 0;
    oram.attachObserver([&](TraceEventKind, std::uint64_t a) {
        const std::uint64_t append_to_group0 =
            static_cast<std::uint64_t>(SdimmCommandType::Append) << 8;
        appends_to_dead += a == append_to_group0;
    });

    std::map<Addr, BlockData> mirror;
    for (std::uint64_t a = 0; a < 24; ++a) {
        const BlockData d = blockOf(a * 31 + 7);
        oram.access(a, oram::OramOp::Write, &d);
        mirror[a] = d;
    }
    EXPECT_TRUE(oram.isQuarantined(0));
    EXPECT_FALSE(oram.isQuarantined(1));
    EXPECT_EQ(oram.quarantinedCount(), 1u);
    EXPECT_FALSE(oram.failedStop());
    for (const auto &kv : mirror)
        EXPECT_EQ(oram.access(kv.first, oram::OramOp::Read), kv.second);
    EXPECT_TRUE(oram.integrityOk());
    EXPECT_EQ(inj.detected(fault::FaultKind::WatchdogTimeout), 1u);
    EXPECT_EQ(inj.unrecoveredTotal(), 0u);
    EXPECT_GT(appends_to_dead, 0u);
}

TEST(IndepSplitOram, SliceTamperInEitherGroupDetected)
{
    IndepSplitOram oram(smallParams(), 13);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    oram.group(1).tamperSlice(0, 0, 0, 0);
    for (int i = 0; i < 30; ++i)
        oram.access(static_cast<Addr>(i % 10), oram::OramOp::Read);
    EXPECT_FALSE(oram.integrityOk());
}

} // namespace
} // namespace secdimm::sdimm

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fault/fault_injector.hh"
#include "sdimm/independent_oram.hh"

namespace secdimm::sdimm
{
namespace
{

IndependentOram::Params
smallParams(unsigned sdimms = 2, unsigned levels = 7)
{
    IndependentOram::Params p;
    p.perSdimm.levels = levels;
    p.perSdimm.stashCapacity = 200;
    p.numSdimms = sdimms;
    return p;
}

/** One bus command as the channel shows it. */
struct Command
{
    SdimmCommandType type;
    unsigned sdimm;
    std::uint64_t bytes; ///< Payload of the Transfer that follows.
};

/** Record every bus command @p oram issues from now on. */
void
watchCommands(IndependentOram &oram, std::vector<Command> &cmds)
{
    oram.attachObserver([&cmds](TraceEventKind kind, std::uint64_t a) {
        if (kind == TraceEventKind::ShortCmd)
            cmds.push_back({static_cast<SdimmCommandType>(a >> 8),
                            static_cast<unsigned>(a & 0xff), 0});
        else if (kind == TraceEventKind::Transfer)
            cmds.back().bytes = a;
    });
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

TEST(IndependentOram, ReadYourWrites)
{
    IndependentOram oram(smallParams(), 1);
    const BlockData v = blockOf(0x1122334455667788ULL);
    oram.access(5, oram::OramOp::Write, &v);
    EXPECT_EQ(oram.access(5, oram::OramOp::Read), v);
}

TEST(IndependentOram, BlocksMigrateAcrossSdimmsAndSurvive)
{
    IndependentOram oram(smallParams(2), 3);
    const std::uint64_t capacity = oram.capacityBlocks();
    std::map<Addr, std::uint64_t> expected;
    Rng rng(17);
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
}

TEST(IndependentOram, FourSdimmsWork)
{
    IndependentOram oram(smallParams(4, 6), 5);
    const BlockData v = blockOf(42);
    for (Addr a = 0; a < 64; ++a)
        oram.access(a, oram::OramOp::Write, &v);
    for (Addr a = 0; a < 64; ++a)
        EXPECT_EQ(oram.access(a, oram::OramOp::Read), v);
    EXPECT_TRUE(oram.integrityOk());
}

TEST(IndependentOram, EveryAccessAppendsToAllSdimms)
{
    // The obfuscation invariant of Section III-C step 6: per access,
    // exactly one ACCESS and one APPEND per SDIMM, regardless of
    // whether the block moved.
    IndependentOram oram(smallParams(2), 7);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    std::vector<Command> cmds;
    watchCommands(oram, cmds);
    const int n = 50;
    for (int i = 0; i < n; ++i)
        oram.access(0, oram::OramOp::Read);

    int accesses = 0, appends0 = 0, appends1 = 0, fetches = 0;
    for (const Command &e : cmds) {
        switch (e.type) {
          case SdimmCommandType::Access: ++accesses; break;
          case SdimmCommandType::FetchResult: ++fetches; break;
          case SdimmCommandType::Append:
            (e.sdimm == 0 ? appends0 : appends1)++;
            break;
          default: break;
        }
    }
    EXPECT_EQ(accesses, n);
    EXPECT_EQ(fetches, n);
    EXPECT_EQ(appends0, n);
    EXPECT_EQ(appends1, n);
}

TEST(IndependentOram, MessageSizesAreOperationIndependent)
{
    // Reads and writes, moving and staying blocks -- every ACCESS and
    // APPEND must have the same sealed size or the bus leaks the
    // operation type.
    IndependentOram oram(smallParams(2), 9);
    std::vector<Command> cmds;
    watchCommands(oram, cmds);
    const BlockData v = blockOf(9);
    for (int i = 0; i < 30; ++i) {
        if (i % 2)
            oram.access(static_cast<Addr>(i % 5), oram::OramOp::Read);
        else
            oram.access(static_cast<Addr>(i % 5), oram::OramOp::Write,
                        &v);
    }
    std::size_t access_size = 0, append_size = 0;
    for (const Command &e : cmds) {
        if (e.type == SdimmCommandType::Access) {
            if (access_size == 0)
                access_size = e.bytes;
            EXPECT_EQ(e.bytes, access_size);
        } else if (e.type == SdimmCommandType::Append) {
            if (append_size == 0)
                append_size = e.bytes;
            EXPECT_EQ(e.bytes, append_size);
        }
    }
    EXPECT_GT(access_size, blockBytes);
    EXPECT_GT(append_size, blockBytes);
}

TEST(IndependentOram, TargetSdimmSequenceLooksUniform)
{
    // Hammering one address must spread ACCESS commands evenly over
    // SDIMMs (leaf remapping): the attacker cannot localize a block.
    IndependentOram oram(smallParams(4, 6), 11);
    const BlockData v = blockOf(1);
    oram.access(0, oram::OramOp::Write, &v);
    std::vector<Command> cmds;
    watchCommands(oram, cmds);
    const int n = 400;
    for (int i = 0; i < n; ++i)
        oram.access(0, oram::OramOp::Read);
    std::vector<int> counts(4, 0);
    for (const Command &e : cmds) {
        if (e.type == SdimmCommandType::Access)
            ++counts[e.sdimm];
    }
    for (int c : counts) {
        EXPECT_GT(c, n / 4 - n / 8);
        EXPECT_LT(c, n / 4 + n / 8);
    }
}

TEST(IndependentOram, TransferQueueSeesTraffic)
{
    IndependentOram oram(smallParams(2), 13);
    const BlockData v = blockOf(2);
    for (int i = 0; i < 100; ++i)
        oram.access(static_cast<Addr>(i % 20), oram::OramOp::Write, &v);
    std::uint64_t arrivals = 0;
    for (unsigned s = 0; s < 2; ++s)
        arrivals += oram.buffer(s).transferQueue().stats().arrivals;
    // Roughly half of accesses move the block between SDIMMs.
    EXPECT_GT(arrivals, 20u);
    std::uint64_t overflows = 0;
    for (unsigned s = 0; s < 2; ++s)
        overflows += oram.buffer(s).transferQueue().stats().overflows;
    EXPECT_EQ(overflows, 0u);
}

TEST(IndependentOram, DegradedSurvivorLeafDrawsAreUniform)
{
    // After a quarantine, every fresh leaf draw must be uniform over
    // the SURVIVOR leaves: a skew would let a bus analyst spot the
    // fail-over region, and a survivor hotspot would break Path ORAM's
    // load argument.  Chi-squared over 10k post-quarantine draws.
    IndependentOram oram(smallParams(2, 5), 21);
    fault::FaultInjector inj(fault::FaultPlan::stuckAt(0, 31));
    oram.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    const std::uint64_t leaves_per_sdimm =
        oram.params().perSdimm.numLeaves();
    const unsigned levels = oram.params().perSdimm.levels;
    std::vector<std::uint64_t> counts(leaves_per_sdimm, 0);
    Rng rng(7);
    const std::uint64_t samples = 10000;
    const BlockData v = blockOf(77);
    for (std::uint64_t i = 0; i < samples; ++i) {
        const Addr a = rng.nextBelow(64);
        oram.access(a, (i & 1) ? oram::OramOp::Write : oram::OramOp::Read,
                    (i & 1) ? &v : nullptr);
        const LeafId leaf = oram.leafOf(a); // Freshly drawn this access.
        ASSERT_EQ(leaf >> levels, 1u) << "draw landed on the dead SDIMM";
        ++counts[leaf & (leaves_per_sdimm - 1)];
    }
    EXPECT_TRUE(oram.isQuarantined(0));
    const double expected =
        static_cast<double>(samples) / static_cast<double>(counts.size());
    double chi2 = 0;
    for (const std::uint64_t c : counts) {
        const double d = static_cast<double>(c) - expected;
        chi2 += d * d / expected;
    }
    // 31 degrees of freedom: 70 is far beyond the p=0.001 critical
    // value (~61.1) -- loose enough to be stable, tight enough to
    // catch any structural skew.
    EXPECT_LT(chi2, 70.0);
}

TEST(IndependentOram, QuarantineCountIsMonotone)
{
    IndependentOram oram(smallParams(2, 4), 23);
    fault::FaultInjector inj(fault::FaultPlan::hardDeath(1, 100, 37));
    oram.setFaultInjector(&inj, fault::DegradationPolicy::Degraded);

    std::uint64_t last = 0;
    const BlockData v = blockOf(5);
    for (int i = 0; i < 300; ++i) {
        oram.access(static_cast<Addr>(i % 16),
                    (i & 1) ? oram::OramOp::Write : oram::OramOp::Read,
                    (i & 1) ? &v : nullptr);
        const std::uint64_t q = inj.quarantinedUnits();
        ASSERT_GE(q, last) << "quarantine count regressed at access " << i;
        last = q;
    }
    EXPECT_EQ(last, 1u);
    EXPECT_EQ(oram.quarantinedCount(), 1u);
}

TEST(IndependentOram, DummyAppendsDoNotCorruptState)
{
    IndependentOram oram(smallParams(2), 15);
    const BlockData v1 = blockOf(111), v2 = blockOf(222);
    oram.access(1, oram::OramOp::Write, &v1);
    oram.access(2, oram::OramOp::Write, &v2);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(oram.access(1, oram::OramOp::Read), v1);
        EXPECT_EQ(oram.access(2, oram::OramOp::Read), v2);
    }
}

} // namespace
} // namespace secdimm::sdimm

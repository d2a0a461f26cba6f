/**
 * @file
 * Runtime invariant audits, both directions: heavy churn leaves every
 * protocol clean, and injected corruption (tampered buckets, wrong
 * leaves, forced queue overflow) is detected and described.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "core/secure_memory_system.hh"
#include "crypto/aes128.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_oram.hh"
#include "oram/stash.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "sdimm/transfer_queue.hh"
#include "util/rng.hh"
#include "verify/invariant_audit.hh"

namespace secdimm::verify
{
namespace
{

BlockData
patternBlock(std::uint64_t x)
{
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<std::uint8_t>((x * 131 + i) & 0xff);
    return d;
}

oram::PathOram
makePathOram(unsigned levels, std::uint64_t seed)
{
    oram::OramParams p;
    p.levels = levels;
    p.stashCapacity = 200;
    return oram::PathOram(p, crypto::makeKey(0x11, seed),
                          crypto::makeKey(0x22, seed * 3 + 1), seed);
}

TEST(InvariantAudit, PathOramCleanUnderHeavyChurn)
{
    oram::PathOram o = makePathOram(7, 5);
    const std::uint64_t cap = o.params().capacityBlocks();
    Rng rng(9);
    for (unsigned i = 0; i < 10000; ++i) {
        const Addr a = rng.nextBelow(cap);
        if (rng.nextBool(0.5)) {
            const BlockData d = patternBlock(a);
            o.access(a, oram::OramOp::Write, &d);
        } else {
            o.access(a, oram::OramOp::Read);
        }
        if (i % 2500 == 2499) {
            const AuditReport r = auditPathOram(o, true);
            ASSERT_TRUE(r.ok()) << "after " << (i + 1)
                                << " accesses: " << r.summary();
        }
    }
    const AuditReport r = auditPathOram(o, true);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_GT(r.checksRun, 100u);
}

TEST(InvariantAudit, PathOramDetectsTamperedBucket)
{
    oram::PathOram o = makePathOram(5, 6);
    for (Addr a = 0; a < 20; ++a) {
        const BlockData d = patternBlock(a);
        o.access(a, oram::OramOp::Write, &d);
    }
    ASSERT_TRUE(auditPathOram(o, true).ok());
    o.store().tamperData(3, 17);
    const AuditReport r = auditPathOram(o, true);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.summary().find("authentication"), std::string::npos)
        << r.summary();
}

TEST(InvariantAudit, PathOramDetectsLeafPosMapMismatch)
{
    oram::PathOram o = makePathOram(5, 7);
    const BlockData d = patternBlock(1);
    o.access(0, oram::OramOp::Write, &d);
    ASSERT_TRUE(auditPathOram(o, true).ok());
    // Adopt the same block under a different (valid) leaf: for an
    // access()-driven tree that contradicts the PosMap (and possibly
    // duplicates the block) -- either way the audit must object.
    const LeafId wrong = (o.leafOf(0) + 1) % o.params().numLeaves();
    ASSERT_TRUE(o.adoptBlock(0, wrong, d));
    EXPECT_FALSE(auditPathOram(o, true).ok());
}

TEST(InvariantAudit, RecursiveOramCleanAfterChurn)
{
    oram::RecursiveOram::Params rp;
    rp.data.levels = 8;
    rp.data.stashCapacity = 200;
    oram::RecursiveOram o(rp, 3);
    const std::uint64_t cap = o.capacityBlocks();
    Rng rng(4);
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr a = rng.nextBelow(cap);
        const BlockData d = patternBlock(a);
        if (rng.nextBool(0.5))
            o.access(a, oram::OramOp::Write, &d);
        else
            o.access(a, oram::OramOp::Read);
    }
    const AuditReport r = auditRecursiveOram(o);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(InvariantAudit, IndependentCleanAfterChurn)
{
    sdimm::IndependentOram::Params ip;
    ip.perSdimm.levels = 6;
    ip.perSdimm.stashCapacity = 200;
    ip.numSdimms = 2;
    sdimm::IndependentOram o(ip, 8);
    const std::uint64_t cap = o.capacityBlocks();
    Rng rng(2);
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr a = rng.nextBelow(cap);
        const BlockData d = patternBlock(a);
        if (rng.nextBool(0.5))
            o.access(a, oram::OramOp::Write, &d);
        else
            o.access(a, oram::OramOp::Read);
    }
    const AuditReport r = auditIndependentOram(o);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_GT(r.checksRun, 100u);
}

TEST(InvariantAudit, SplitCleanAfterChurnAndDetectsTamper)
{
    sdimm::SplitOram::Params sp;
    sp.tree.levels = 6;
    sp.tree.stashCapacity = 200;
    sp.slices = 2;
    sdimm::SplitOram o(sp, 12);
    const std::uint64_t cap = o.capacityBlocks();
    Rng rng(6);
    for (unsigned i = 0; i < 2000; ++i) {
        const Addr a = rng.nextBelow(cap);
        const BlockData d = patternBlock(a);
        if (rng.nextBool(0.5))
            o.access(a, oram::OramOp::Write, &d);
        else
            o.access(a, oram::OramOp::Read);
    }
    const AuditReport clean = auditSplitOram(o, true);
    ASSERT_TRUE(clean.ok()) << clean.summary();

    o.tamperSlice(0, 0, 0, 5);
    const AuditReport r = auditSplitOram(o, true);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.summary().find("MAC"), std::string::npos)
        << r.summary();
}

TEST(InvariantAudit, IndepSplitCleanAfterChurn)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, 21);
    const std::uint64_t cap = o.capacityBlocks();
    Rng rng(3);
    for (unsigned i = 0; i < 1000; ++i) {
        const Addr a = rng.nextBelow(cap);
        const BlockData d = patternBlock(a);
        if (rng.nextBool(0.5))
            o.access(a, oram::OramOp::Write, &d);
        else
            o.access(a, oram::OramOp::Read);
    }
    const AuditReport r = auditIndepSplitOram(o);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(InvariantAudit, IndepSplitDetectsBlockInWrongGroup)
{
    sdimm::IndepSplitOram::Params gp;
    gp.perGroupTree.levels = 6;
    gp.perGroupTree.stashCapacity = 200;
    gp.groups = 2;
    gp.slicesPerGroup = 2;
    sdimm::IndepSplitOram o(gp, 21);
    const Addr a = 5;
    const BlockData d = patternBlock(a);
    o.access(a, oram::OramOp::Write, &d);
    ASSERT_TRUE(auditIndepSplitOram(o).ok());

    // Plant a copy in the group the global PosMap does NOT name.
    const unsigned home =
        static_cast<unsigned>(o.leafOf(a) >> gp.perGroupTree.levels);
    o.group(1 - home).adoptBlock(a, 0, d);
    const AuditReport r = auditIndepSplitOram(o);
    EXPECT_FALSE(r.ok());
    std::ostringstream expect;
    expect << "indep_split: block " << a << " at group " << 1 - home
           << " leaf 0, PosMap says group " << home;
    EXPECT_TRUE(std::any_of(r.violations.begin(), r.violations.end(),
                            [&](const std::string &v) {
                                return v.find(expect.str()) == 0;
                            }))
        << r.summary();
}

TEST(InvariantAudit, TransferQueueCleanUnderModel)
{
    sdimm::TransferQueue q(16, 0.25, 3);
    Rng rng(1);
    for (unsigned i = 0; i < 500; ++i) {
        // Arrivals slower than the combined service rate (background
        // drain at 0.25 plus the owner popping on every access) keep
        // the queue un-saturated, which is the regime the analytic
        // overflow bound describes.
        if (rng.nextBool(0.5)) {
            oram::StashEntry e;
            e.addr = i;
            e.leaf = 0;
            q.push(e);
        }
        if (q.rollDrain())
            q.pop();
        // The owner also services on its own accesses.
        q.pop();
    }
    const AuditReport r = auditTransferQueue(q);
    EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(InvariantAudit, TransferQueueFlagsExcessOverflow)
{
    // drainProb 0.9 predicts near-zero overflow; never servicing the
    // queue forces far more than the model's 10x allowance.
    sdimm::TransferQueue q(2, 0.9, 3);
    for (unsigned i = 0; i < 60; ++i) {
        oram::StashEntry e;
        e.addr = i;
        q.push(e);
        q.rollDrain();
    }
    const AuditReport r = auditTransferQueue(q);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.summary().find("queueing-model"), std::string::npos)
        << r.summary();
}

TEST(InvariantAudit, SettingsFromEnvOverride)
{
    ::setenv("SDIMM_AUDIT", "1", 1);
    ::setenv("SDIMM_AUDIT_INTERVAL", "77", 1);
    const AuditSettings s = AuditSettings::fromEnv();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.interval, 77u);
    ::unsetenv("SDIMM_AUDIT");
    ::unsetenv("SDIMM_AUDIT_INTERVAL");
    const AuditSettings d = AuditSettings::fromEnv();
    EXPECT_FALSE(d.enabled);
    EXPECT_EQ(d.interval, 512u);
}

class FacadeAudit
    : public ::testing::TestWithParam<core::SecureMemorySystem::Protocol>
{
};

INSTANTIATE_TEST_SUITE_P(
    Protocols, FacadeAudit,
    ::testing::Values(core::SecureMemorySystem::Protocol::PathOram,
                      core::SecureMemorySystem::Protocol::Freecursive,
                      core::SecureMemorySystem::Protocol::Independent,
                      core::SecureMemorySystem::Protocol::Split,
                      core::SecureMemorySystem::Protocol::IndepSplit),
    [](const ::testing::TestParamInfo<
        core::SecureMemorySystem::Protocol> &info) {
        switch (info.param) {
          case core::SecureMemorySystem::Protocol::PathOram:
            return "PathOram";
          case core::SecureMemorySystem::Protocol::Freecursive:
            return "Freecursive";
          case core::SecureMemorySystem::Protocol::Independent:
            return "Independent";
          case core::SecureMemorySystem::Protocol::Split:
            return "Split";
          case core::SecureMemorySystem::Protocol::IndepSplit:
            return "IndepSplit";
        }
        return "Unknown";
    });

TEST_P(FacadeAudit, PeriodicAuditsRunCleanUnderChurn)
{
    core::SecureMemorySystem::Options opt;
    opt.protocol = GetParam();
    opt.capacityBytes = 1 << 16;
    opt.seed = 5;
    opt.audits.enabled = true;
    opt.audits.interval = 64;
    core::SecureMemorySystem mem(opt);

    const std::uint64_t cap = mem.capacityBytes() / blockBytes;
    Rng rng(7);
    for (unsigned i = 0; i < 300; ++i) {
        const Addr a = rng.nextBelow(cap);
        if (rng.nextBool(0.5))
            mem.writeBlock(a, patternBlock(a));
        else
            mem.readBlock(a);
    }

    const AuditReport r = mem.auditNow();
    EXPECT_TRUE(r.ok()) << r.summary();
    const util::MetricsRegistry m = mem.metrics();
    EXPECT_GE(m.counter("core.audits_run"), 4u);
    EXPECT_EQ(m.counter("core.audit_violations"), 0u);
    EXPECT_TRUE(mem.integrityOk());
}

} // namespace
} // namespace secdimm::verify

/**
 * @file
 * Exact work and channel counts of Path ORAM and Split ORAM for fixed
 * seeds.  Host-side memory tuning (prefetch hints, page sizes) must
 * leave every figure here bit-identical: the AES and MAC work, the
 * stash high-water mark, Split's channel and local bytes, the fault
 * injector's ledger and a digest of every event the observer sees.
 * A change here is a change to what the adversary or the metrics see.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/aes128.hh"
#include "fault/fault_injector.hh"
#include "oram/path_oram.hh"
#include "sdimm/split_oram.hh"
#include "util/rng.hh"

namespace secdimm::sdimm
{
namespace
{

/** FNV-1a over the observer's (kind, address) stream. */
struct EventDigest
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t events = 0;

    void
    add(TraceEventKind kind, std::uint64_t addr)
    {
        const std::uint64_t words[] = {static_cast<std::uint64_t>(kind),
                                       addr};
        for (std::uint64_t w : words) {
            for (int i = 0; i < 8; ++i) {
                hash ^= (w >> (8 * i)) & 0xff;
                hash *= 0x100000001b3ULL;
            }
        }
        ++events;
    }
};

/** Everything one pinned run reports. */
struct Counts
{
    std::uint64_t aesBlocks;
    std::uint64_t macTags;
    std::uint64_t accesses;
    std::uint64_t stashMax;
    std::uint64_t channelBytes; ///< Split only (0 for Path ORAM).
    std::uint64_t localBytes;   ///< Split only (0 for Path ORAM).
    std::uint64_t faultsInjected;
    std::uint64_t faultsRecovered;
    std::uint64_t events;
    std::uint64_t digest;
};

void
expectCounts(const Counts &got, const Counts &want, const char *label)
{
    EXPECT_EQ(got.aesBlocks, want.aesBlocks) << label;
    EXPECT_EQ(got.macTags, want.macTags) << label;
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.stashMax, want.stashMax) << label;
    EXPECT_EQ(got.channelBytes, want.channelBytes) << label;
    EXPECT_EQ(got.localBytes, want.localBytes) << label;
    EXPECT_EQ(got.faultsInjected, want.faultsInjected) << label;
    EXPECT_EQ(got.faultsRecovered, want.faultsRecovered) << label;
    EXPECT_EQ(got.events, want.events) << label;
    EXPECT_EQ(got.digest, want.digest) << label;
}

/** A 9-level tree (8 below the root) with @p cached levels cached. */
oram::OramParams
treeParams(unsigned cached)
{
    oram::OramParams p;
    p.levels = 8;
    p.stashCapacity = 200;
    p.cachedLevels = cached;
    return p;
}

/**
 * 600 seeded accesses, half writes, over the engine's capacity, with
 * the observer attached and -- when @p faults -- DRAM bit flips and
 * link faults armed.  Fills every field of Counts but the stash
 * maximum and Split's byte counters, which the caller reads.
 */
Counts
drive(oram::OramEngine &oram, std::uint64_t capacity, bool faults)
{
    fault::FaultPlan plan;
    plan.dramBitFlipRate = 0.02;
    plan.linkCorruptRate = 0.01;
    plan.linkDropRate = 0.01;
    plan.linkDelayRate = 0.01;
    plan.seed = 31;
    fault::FaultInjector inj(plan);
    if (faults)
        oram.setFaultInjector(&inj);
    EventDigest digest;
    oram.attachObserver([&](TraceEventKind kind, std::uint64_t addr) {
        digest.add(kind, addr);
    });

    Rng rng(0x5eed);
    for (int i = 0; i < 600; ++i) {
        const Addr a = rng.nextBelow(capacity);
        BlockData d{};
        d[0] = static_cast<std::uint8_t>(i);
        d[1] = static_cast<std::uint8_t>(a);
        if (rng.nextBelow(2) == 0)
            oram.access(a, oram::OramOp::Write, &d);
        else
            oram.access(a, oram::OramOp::Read);
    }
    EXPECT_TRUE(oram.integrityOk());
    oram.attachObserver({});
    oram.setFaultInjector(nullptr);

    crypto::CryptoTotals t;
    oram.collectCrypto(t);
    return {t.aesBlocks,          t.macTags,
            oram.accessCount(),   0,
            0,                    0,
            inj.injectedTotal(),  inj.recoveredTotal(),
            digest.events,        digest.hash};
}

Counts
pathRun(unsigned cached, bool faults)
{
    oram::PathOram oram(treeParams(cached), crypto::makeKey(0xa, 0xb),
                        crypto::makeKey(0xc, 0xd), 7);
    Counts c = drive(oram, oram.params().capacityBlocks(), faults);
    c.stashMax = oram.stash().maxSizeSeen();
    return c;
}

Counts
splitRun(unsigned cached, bool faults)
{
    SplitOram oram({treeParams(cached), 2}, 7);
    Counts c = drive(oram, oram.capacityBlocks(), faults);
    c.stashMax = oram.shadowStash().maxSizeSeen();
    c.channelBytes = oram.stats().channelBytes;
    c.localBytes = oram.stats().localBytes;
    return c;
}

TEST(ExactCounts, PathOramPinned)
{
    expectCounts(pathRun(0, false),
                 {463752, 11311, 600, 19, 0, 0, 0, 0, 10800,
                  104564236203322449ULL},
                 "path k=0");
    expectCounts(pathRun(3, false),
                 {315865, 7704, 600, 19, 0, 0, 0, 0, 7200,
                  1473388233199740665ULL},
                 "path k=3");
    // Each of the 73 flipped bucket reads is read again.
    expectCounts(pathRun(3, true),
                 {318858, 7777, 600, 19, 0, 0, 73, 73, 7273,
                  17380964314389434660ULL},
                 "path k=3 faults");
}

TEST(ExactCounts, SplitOramPinned)
{
    // Split's observer sees one leaf per access, so the digest is the
    // leaf sequence, the same under every cache depth and fault plan.
    const std::uint64_t leaves = 15225153298188350487ULL;
    expectCounts(splitRun(0, false),
                 {405679, 22622, 600, 19, 918016, 1616256, 0, 0, 600,
                  leaves},
                 "split k=0");
    expectCounts(splitRun(3, false),
                 {275653, 15408, 600, 19, 630016, 1038272, 0, 0, 600,
                  leaves},
                 "split k=3");
    expectCounts(splitRun(3, true),
                 {277468, 15573, 600, 19, 642128, 1038272, 404, 404, 600,
                  leaves},
                 "split k=3 faults");
}

} // namespace
} // namespace secdimm::sdimm

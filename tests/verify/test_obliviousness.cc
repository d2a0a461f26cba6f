/**
 * @file
 * The tentpole security test: two workloads of identical length and
 * identical index/reuse structure but DIFFERENT addresses (disjoint
 * regions) and different values are run through every backend, and the
 * externally visible traces are compared.  Every secure design must
 * leave the pair statistically indistinguishable; the non-secure
 * baseline, which puts the raw address stream on the channel, must
 * fail -- a positive control proving the checker has teeth.
 */

#include <gtest/gtest.h>

#include "core/secure_memory_system.hh"
#include "core/system_config.hh"
#include "oram/path_oram.hh"
#include "oram/tree_layout.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_checker.hh"

namespace secdimm::verify
{
namespace
{

constexpr std::size_t kAccesses = 256;

/**
 * Byte-address access sequence with a reproducible index/reuse
 * structure: the SAME @p structure_seed yields the same draw of
 * indices, reuses, and read/write flags, so two sequences differing
 * only in @p base_block touch disjoint regions through identical
 * locality.  (Identical structure matters: the Freecursive PLB reacts
 * to reuse, and an asymmetric pair would fail for benign reasons.)
 */
std::vector<std::pair<Addr, bool>>
makeSequence(std::uint64_t structure_seed, std::uint64_t base_block,
             std::uint64_t region_blocks, std::size_t count = kAccesses)
{
    Rng rng(structure_seed);
    std::vector<std::pair<Addr, bool>> seq;
    std::vector<std::uint64_t> pool;
    seq.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t idx;
        if (!pool.empty() && rng.nextBool(0.3)) {
            idx = pool[rng.nextBelow(pool.size())];
        } else {
            idx = rng.nextBelow(region_blocks);
            pool.push_back(idx);
        }
        seq.emplace_back((base_block + idx) * blockBytes,
                         rng.nextBool(0.5));
    }
    return seq;
}

// ---------------------------------------------------------------------
// Timing layer: DRAM channels / link buses, via
// ChannelObserver::attach(MemoryBackend &).
// ---------------------------------------------------------------------

struct OblCase
{
    core::DesignPoint design;
    bool expectIndistinguishable;
};

class TimingObliviousness : public ::testing::TestWithParam<OblCase>
{
  protected:
    std::vector<TraceEvent>
    runTrace(const std::vector<std::pair<Addr, bool>> &seq,
             std::uint64_t backend_seed) const
    {
        core::SystemConfig cfg =
            core::makeConfig(GetParam().design, 12, 4);
        cfg.cpuGeom.rowsPerBank = 4096;
        cfg.sdimmGeom.rowsPerBank = 4096;
        auto backend = core::buildBackend(cfg, backend_seed);
        ChannelObserver obs;
        // Every CPU channel is attached: the DRAM channels, or one
        // link bus per CPU channel for the SDIMM designs.
        const unsigned channels =
            cfg.numSdimms() == 0 ? cfg.cpuGeom.channels : cfg.cpuChannels;
        EXPECT_EQ(obs.attach(*backend), channels);
        driveBackend(*backend, seq);
        return obs.events();
    }
};

INSTANTIATE_TEST_SUITE_P(
    Designs, TimingObliviousness,
    ::testing::Values(
        OblCase{core::DesignPoint::NonSecure, false},
        OblCase{core::DesignPoint::PathOram, true},
        OblCase{core::DesignPoint::Freecursive, true},
        OblCase{core::DesignPoint::Indep2, true},
        OblCase{core::DesignPoint::Split2, true},
        OblCase{core::DesignPoint::Indep4, true},
        OblCase{core::DesignPoint::Split4, true},
        OblCase{core::DesignPoint::IndepSplit, true}),
    [](const ::testing::TestParamInfo<OblCase> &info) {
        std::string n = core::designName(info.param.design);
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST_P(TimingObliviousness, DisjointRegionsMatchVerdict)
{
    // Same structure, disjoint regions, independent backend seeds (so
    // a PASS cannot come from shared randomness).
    const auto trace_a = runTrace(makeSequence(42, 0, 2048), 11);
    const auto trace_b = runTrace(makeSequence(42, 1 << 16, 2048), 77);
    ASSERT_FALSE(trace_a.empty());
    ASSERT_FALSE(trace_b.empty());
    const TraceComparison c = compareTraces(trace_a, trace_b);
    EXPECT_EQ(c.indistinguishable, GetParam().expectIndistinguishable)
        << core::designName(GetParam().design) << ": " << c.summary();
}

TEST_P(TimingObliviousness, SameWorkloadAlwaysIndistinguishable)
{
    // Sanity: the thresholds admit the null case (same addresses, only
    // the backend seed differs), so a FAIL above really is leakage.
    const auto seq = makeSequence(42, 0, 2048);
    const TraceComparison c =
        compareTraces(runTrace(seq, 11), runTrace(seq, 77));
    EXPECT_TRUE(c.indistinguishable)
        << core::designName(GetParam().design) << ": " << c.summary();
}

// ---------------------------------------------------------------------
// Functional layer: the real-crypto protocol implementations.
// ---------------------------------------------------------------------

/** Fill a block with a value stream derived from (salt, index). */
BlockData
valueBlock(std::uint64_t salt, std::uint64_t idx)
{
    BlockData d{};
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = static_cast<std::uint8_t>(
            (salt * 0x9e3779b97f4a7c15ull + idx * 31 + i) & 0xff);
    }
    return d;
}

using Protocol = core::SecureMemorySystem::Protocol;

/** A deliberate leak a positive control adds to a functional trace. */
enum class Plant
{
    None,
    /** Each accessed block index, as the non-secure baseline shows it. */
    BlockIndex,
    /**
     * One extra read of an uncached bucket per access, the bucket
     * chosen by the half of the address space in use: a shift of
     * about 1/11 of the served PathOram view's address histogram.
     */
    RegionBucket,
};

/**
 * Drive the shared access structure over [base_block, base_block +
 * region_blocks) through @p access(block, data): @p data is the value
 * to write, or nullptr for a read.
 */
template <typename Access>
void
driveStructure(std::uint64_t base_block, std::uint64_t region_blocks,
               std::uint64_t value_salt, std::size_t count,
               Access &&access)
{
    Rng rng(42);
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t idx;
        if (!pool.empty() && rng.nextBool(0.3)) {
            idx = pool[rng.nextBelow(pool.size())];
        } else {
            idx = rng.nextBelow(region_blocks);
            pool.push_back(idx);
        }
        if (rng.nextBool(0.5)) {
            const BlockData v = valueBlock(value_salt, idx);
            access(base_block + idx, &v);
        } else {
            access(base_block + idx, nullptr);
        }
    }
}

/**
 * Store seq of bucket @p index on level 4 of a 9-level tree: the first
 * level of pathOramTrace's tree that the served view keeps in DRAM.
 */
std::uint64_t
uncachedBucketSeq(std::uint64_t index)
{
    oram::OramParams p;
    p.levels = 8;
    return oram::TreeLayout(p.levels, p.linesPerBucket())
        .bucketSeq({4, index});
}

/**
 * The visible trace of one protocol, driven through
 * core::SecureMemorySystem with the shared access structure and
 * observed through its attachObserver; @p plant adds a deliberate
 * leak to it.  @p capacity_bytes sizes each design's tree(s).
 */
std::vector<TraceEvent>
functionalTrace(Protocol protocol, std::uint64_t capacity_bytes,
                std::uint64_t oram_seed, std::uint64_t base_block,
                std::uint64_t region_blocks, std::uint64_t value_salt,
                std::size_t count, Plant plant = Plant::None)
{
    core::SecureMemorySystem::Options opt;
    opt.protocol = protocol;
    opt.capacityBytes = capacity_bytes;
    opt.seed = oram_seed;
    core::SecureMemorySystem mem(opt);
    ChannelObserver obs;
    EXPECT_GT(mem.attachObserver(obs), 0u);
    const std::uint64_t region = base_block / region_blocks;
    driveStructure(base_block, region_blocks, value_salt, count,
                   [&](Addr block, const BlockData *data) {
                       if (data)
                           mem.writeBlock(block, *data);
                       else
                           mem.readBlock(block);
                       if (plant == Plant::BlockIndex)
                           obs.record(TraceEventKind::Read, block, 0);
                       else if (plant == Plant::RegionBucket)
                           obs.record(TraceEventKind::StoreRead,
                                      uncachedBucketSeq(region * 15), 0);
                   });
    return obs.events();
}

/** pathOramTrace's tree: 512 blocks, 8 levels (9 with the root). */
constexpr std::uint64_t kPathOramBlocks = 512;

/**
 * The visible trace of @p protocol over a 512-block data tree as
 * core::SecureMemorySystem serves it: the bucket reads and writes of
 * every tree (for PathOram, of the levels below the ORAM cache, which
 * holds 4 of the 9).
 */
std::vector<TraceEvent>
pathOramTrace(std::uint64_t oram_seed, std::uint64_t base_block,
              std::uint64_t region_blocks, std::uint64_t value_salt,
              Protocol protocol = Protocol::PathOram,
              Plant plant = Plant::None)
{
    return functionalTrace(protocol, kPathOramBlocks * blockBytes,
                           oram_seed, base_block, region_blocks,
                           value_salt, kPathOramBlocks, plant);
}

/**
 * pathOramTrace with every level in DRAM, so the whole path is on the
 * channel.  Freecursive keeps no ORAM cache; for PathOram the trace
 * comes from a bare oram::PathOram with no cached levels, as deep and
 * seeded as the served engine and with its stash capacity (the keys
 * shape no address).
 */
std::vector<TraceEvent>
everyLevelTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                std::uint64_t region_blocks, std::uint64_t value_salt,
                Protocol protocol = Protocol::PathOram)
{
    if (protocol != Protocol::PathOram) {
        return pathOramTrace(oram_seed, base_block, region_blocks,
                             value_salt, protocol);
    }
    oram::OramParams params;
    params.levels =
        oram::levelsForCapacity(kPathOramBlocks, params.bucketBlocks);
    params.stashCapacity =
        core::SecureMemorySystem::Options{}.stashCapacity;
    oram::PathOram o(params, crypto::makeKey(0xdeed, oram_seed),
                     crypto::makeKey(0xfeed, oram_seed * 3 + 1),
                     oram_seed);
    ChannelObserver obs;
    EXPECT_GT(obs.attach(o), 0u);
    driveStructure(base_block, region_blocks, value_salt, kPathOramBlocks,
                   [&](Addr block, const BlockData *data) {
                       o.access(block,
                                data ? oram::OramOp::Write
                                     : oram::OramOp::Read,
                                data);
                   });
    return obs.events();
}

TEST(FunctionalObliviousness, PathOramAddressRegions)
{
    // Disjoint halves of the address space: the bucket access
    // sequence must not betray which half is in use, with the PosMap
    // on chip or in recursive trees (identical reuse structure keeps
    // Freecursive's PLB from telling the pair apart).  Every level
    // in DRAM: the served view is gated below.
    for (const Protocol protocol :
         {Protocol::PathOram, Protocol::Freecursive}) {
        const TraceComparison c =
            compareTraces(everyLevelTrace(11, 0, 256, 5, protocol),
                          everyLevelTrace(77, 256, 256, 9, protocol));
        EXPECT_TRUE(c.indistinguishable) << c.summary();
    }
}

TEST(FunctionalObliviousness, PathOramValuesOnly)
{
    // Same addresses, different written values: ciphertext hides data.
    const TraceComparison c = compareTraces(
        everyLevelTrace(11, 0, 256, 5), everyLevelTrace(77, 0, 256, 1234));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

/**
 * The calibrated gate over the served PathOram view: each secret is a
 * (base block, value salt) pair, and every draw re-seeds the ORAM.
 * Without the top levels, whose buckets repeat most, one pair of
 * runs differs by an address TV of 0.12-0.13 even when both drive the
 * same addresses, so a fixed 0.12 threshold would judge noise; the
 * gate judges the pair against re-seeded runs of one secret instead.
 */
CalibratedComparison
servedPathOramGate(std::uint64_t base_b, std::uint64_t salt_b,
                   Plant plant = Plant::None)
{
    return compareCalibrated([&](unsigned secret, std::uint64_t draw) {
        Observation o;
        o.shardTraces.push_back(pathOramTrace(
            100 + draw, secret ? base_b : 0, 256, secret ? salt_b : 5,
            Protocol::PathOram, plant));
        return o;
    });
}

TEST(FunctionalObliviousness, ServedPathOramAddressRegions)
{
    const CalibratedComparison c = servedPathOramGate(256, 9);
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(FunctionalObliviousness, ServedPathOramValuesOnly)
{
    const CalibratedComparison c = servedPathOramGate(0, 1234);
    EXPECT_TRUE(c.pass) << c.summary();
}

TEST(FunctionalObliviousness, ServedPathOramGateCatchesBlockAddresses)
{
    // Positive control: the same runs with each accessed block index
    // on the channel, as the non-secure baseline shows it.
    const CalibratedComparison c =
        servedPathOramGate(256, 9, Plant::BlockIndex);
    EXPECT_FALSE(c.pass) << c.summary();
    EXPECT_EQ(c.statistics[c.worst].pValue, c.pFloor) << c.summary();
}

TEST(FunctionalObliviousness, ServedPathOramGateCatchesOneBucketPerAccess)
{
    // Positive control at the fixed gate's scale: one extra uncached
    // bucket read per access, chosen by the half in use.  The plant
    // alone moves a run's address histogram by less than the fixed
    // gate's 0.12 threshold; the calibrated gate's address statistic
    // must still resolve it.
    const TraceComparison plant_only = compareTraces(
        pathOramTrace(100, 0, 256, 5),
        pathOramTrace(100, 0, 256, 5, Protocol::PathOram,
                      Plant::RegionBucket));
    EXPECT_LT(plant_only.addressDistance,
              TraceCheckerOptions{}.maxAddressDistance)
        << plant_only.summary();
    const CalibratedComparison c =
        servedPathOramGate(256, 9, Plant::RegionBucket);
    EXPECT_FALSE(c.pass) << c.summary();
    EXPECT_FALSE(c.passes("shard0.addr_tv")) << c.summary();
}

std::vector<TraceEvent>
independentTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                 std::uint64_t region_blocks)
{
    // Two 6-level SDIMM trees; the visible trace is the (command
    // type, target SDIMM) stream plus payload sizes.
    return functionalTrace(Protocol::Independent, 256 * blockBytes,
                           oram_seed, base_block, region_blocks, oram_seed,
                           384);
}

TEST(FunctionalObliviousness, IndependentCommandStream)
{
    const TraceComparison c = compareTraces(
        independentTrace(11, 0, 128), independentTrace(77, 128, 128));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

std::vector<TraceEvent>
indepSplitTrace(std::uint64_t oram_seed, std::uint64_t base_block,
                std::uint64_t region_blocks)
{
    // Two groups of two slices, each group a 6-level tree.
    return functionalTrace(Protocol::IndepSplit, 256 * blockBytes,
                           oram_seed, base_block, region_blocks, oram_seed,
                           384);
}

TEST(FunctionalObliviousness, IndepSplitCommandStream)
{
    const TraceComparison c = compareTraces(
        indepSplitTrace(11, 0, 128), indepSplitTrace(77, 128, 128));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

std::vector<TraceEvent>
splitLeafTrace(std::uint64_t oram_seed, std::uint64_t base_block,
               std::uint64_t region_blocks)
{
    // The path (leaf) choice of a 6-level tree is what the CPU channel
    // reveals per access; it must look uniform regardless of the
    // addresses.  4096 samples keep the expected statistical TV
    // distance over the 64 leaf bins (~sqrt(bins/(pi*n)) ~= 0.07) well
    // inside the 0.12 threshold; 512 samples would sit right at it.
    return functionalTrace(Protocol::Split, 128 * blockBytes, oram_seed,
                           base_block, region_blocks, oram_seed, 4096);
}

TEST(FunctionalObliviousness, SplitLeafSequence)
{
    const TraceComparison c = compareTraces(
        splitLeafTrace(11, 0, 64), splitLeafTrace(77, 64, 64));
    EXPECT_TRUE(c.indistinguishable) << c.summary();
}

} // namespace
} // namespace secdimm::verify

/**
 * @file
 * The seeding contract of util/rng.hh, enforced end to end: identical
 * (config, profile, lengths, seed) inputs produce byte-identical
 * metrics JSON, at both the simulator and the functional facade.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/secure_memory_system.hh"
#include "core/simulator.hh"
#include "trace/workload.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"

namespace secdimm::verify
{
namespace
{

core::SystemConfig
tinyConfig(core::DesignPoint d)
{
    core::SystemConfig cfg = core::makeConfig(d, 12, 4);
    cfg.cpuGeom.rowsPerBank = 4096;
    cfg.sdimmGeom.rowsPerBank = 4096;
    return cfg;
}

core::SimLengths
tinyLengths()
{
    core::SimLengths l;
    l.warmupRecords = 1000;
    l.measureRecords = 200;
    return l;
}

TEST(Determinism, RunWorkloadMetricsJsonByteIdentical)
{
    for (core::DesignPoint d :
         {core::DesignPoint::PathOram, core::DesignPoint::Freecursive,
          core::DesignPoint::Indep2, core::DesignPoint::Split2}) {
        const core::SystemConfig cfg = tinyConfig(d);
        const trace::WorkloadProfile &profile =
            *trace::findProfile("mcf");
        const core::SimResult a =
            core::runWorkload(cfg, profile, tinyLengths(), 9);
        const core::SimResult b =
            core::runWorkload(cfg, profile, tinyLengths(), 9);
        EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson())
            << core::designName(d);
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    const core::SystemConfig cfg =
        tinyConfig(core::DesignPoint::Indep2);
    const trace::WorkloadProfile &profile = *trace::findProfile("mcf");
    const core::SimResult a =
        core::runWorkload(cfg, profile, tinyLengths(), 9);
    const core::SimResult b =
        core::runWorkload(cfg, profile, tinyLengths(), 10);
    EXPECT_NE(a.metrics.toJson(), b.metrics.toJson());
}

TEST(Determinism, SecureMemorySystemByteIdentical)
{
    using Protocol = core::SecureMemorySystem::Protocol;
    const auto run = [](Protocol protocol) {
        core::SecureMemorySystem::Options opt;
        opt.protocol = protocol;
        opt.capacityBytes = 1 << 15;
        opt.seed = 21;
        core::SecureMemorySystem mem(opt);
        ChannelObserver obs;
        mem.attachObserver(obs);
        const std::uint64_t cap = mem.capacityBytes() / blockBytes;
        Rng rng(4);
        std::string reads;
        for (unsigned i = 0; i < 200; ++i) {
            const Addr a = rng.nextBelow(cap);
            if (rng.nextBool(0.5)) {
                BlockData d{};
                d[0] = static_cast<std::uint8_t>(i);
                mem.writeBlock(a, d);
            } else {
                reads.push_back(
                    static_cast<char>(mem.readBlock(a)[0]));
            }
        }
        return std::make_tuple(reads, mem.metrics().toJson(),
                               obs.events());
    };
    for (const Protocol p :
         {Protocol::PathOram, Protocol::Freecursive, Protocol::Independent,
          Protocol::Split, Protocol::IndepSplit}) {
        const auto a = run(p);
        const auto b = run(p);
        EXPECT_EQ(std::get<0>(a), std::get<0>(b));
        EXPECT_EQ(std::get<1>(a), std::get<1>(b));
        EXPECT_FALSE(std::get<2>(a).empty());
        EXPECT_TRUE(std::get<2>(a) == std::get<2>(b))
            << "observed streams differ, protocol "
            << static_cast<int>(p);
    }
}

TEST(Determinism, RngStreamsReproducible)
{
    Rng a(5);
    Rng b(5);
    for (unsigned i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
    // reseed() restarts the stream exactly.
    a.reseed(5);
    Rng c(5);
    for (unsigned i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), c.next());
}

} // namespace
} // namespace secdimm::verify

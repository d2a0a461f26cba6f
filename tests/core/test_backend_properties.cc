/**
 * @file
 * The MemoryBackend contract, checked uniformly across every design
 * point: all admitted accesses complete exactly once, time never runs
 * backwards, the backend drains to idle, and runs are deterministic
 * per seed.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/system_config.hh"

namespace secdimm::core
{
namespace
{

class BackendContract : public ::testing::TestWithParam<DesignPoint>
{
  protected:
    SystemConfig
    config() const
    {
        SystemConfig cfg = makeConfig(GetParam(), 12, 4);
        cfg.cpuGeom.rowsPerBank = 4096;
        cfg.sdimmGeom.rowsPerBank = 4096;
        return cfg;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Designs, BackendContract,
    ::testing::Values(DesignPoint::NonSecure, DesignPoint::Freecursive,
                      DesignPoint::Indep2, DesignPoint::Split2,
                      DesignPoint::Indep4, DesignPoint::Split4,
                      DesignPoint::IndepSplit),
    [](const ::testing::TestParamInfo<DesignPoint> &info) {
        std::string n = designName(info.param);
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

TEST_P(BackendContract, AllAccessesCompleteOnce)
{
    auto backend = buildBackend(config(), 1);
    std::map<std::uint64_t, unsigned> completions;
    backend->setCompletionCallback(
        [&](std::uint64_t id, Tick) { ++completions[id]; });
    Tick now = 0;
    for (unsigned i = 1; i <= 40; ++i) {
        while (!backend->canAccept()) {
            const Tick next = backend->nextEventAt();
            ASSERT_NE(next, tickNever);
            backend->advanceTo(next);
            now = std::max(now, next);
        }
        backend->access(i, i * 8191 * 64, i % 2 == 0, now);
    }
    while (!backend->idle()) {
        const Tick next = backend->nextEventAt();
        ASSERT_NE(next, tickNever) << "deadlock while draining";
        backend->advanceTo(next);
    }
    ASSERT_EQ(completions.size(), 40u);
    for (const auto &kv : completions)
        EXPECT_EQ(kv.second, 1u) << "id " << kv.first;
}

TEST_P(BackendContract, CompletionsAfterSubmission)
{
    auto backend = buildBackend(config(), 2);
    std::map<std::uint64_t, Tick> submitted;
    bool ok = true;
    backend->setCompletionCallback([&](std::uint64_t id, Tick done) {
        if (done < submitted[id])
            ok = false;
    });
    Tick now = 100;
    for (unsigned i = 1; i <= 20; ++i) {
        while (!backend->canAccept())
            backend->advanceTo(backend->nextEventAt());
        submitted[i] = now;
        backend->access(i, i * 64 * 997, false, now);
        now += 50;
    }
    while (!backend->idle()) {
        const Tick next = backend->nextEventAt();
        if (next == tickNever)
            break;
        backend->advanceTo(next);
    }
    EXPECT_TRUE(ok);
}

TEST_P(BackendContract, DeterministicPerSeed)
{
    auto run = [&](std::uint64_t seed) {
        auto backend = buildBackend(config(), seed);
        std::vector<Tick> done;
        backend->setCompletionCallback(
            [&](std::uint64_t, Tick t) { done.push_back(t); });
        Tick now = 0;
        for (unsigned i = 1; i <= 25; ++i) {
            while (!backend->canAccept()) {
                const Tick next = backend->nextEventAt();
                backend->advanceTo(next);
                now = std::max(now, next);
            }
            backend->access(i, i * 64 * 4099, i % 3 == 0, now);
        }
        while (!backend->idle()) {
            const Tick next = backend->nextEventAt();
            if (next == tickNever)
                break;
            backend->advanceTo(next);
        }
        return done;
    };
    EXPECT_EQ(run(7), run(7));
    // Different seeds shuffle leaves, so ORAM designs diverge.
    if (GetParam() != DesignPoint::NonSecure) {
        EXPECT_NE(run(7), run(8));
    }
}

TEST_P(BackendContract, IdleBackendHasNoEvents)
{
    auto backend = buildBackend(config(), 3);
    EXPECT_TRUE(backend->idle());
    EXPECT_EQ(backend->nextEventAt(), tickNever);
    EXPECT_TRUE(backend->canAccept());
}

TEST_P(BackendContract, BackpressureEventuallyClears)
{
    auto backend = buildBackend(config(), 4);
    backend->setCompletionCallback([](std::uint64_t, Tick) {});
    unsigned admitted = 0;
    while (backend->canAccept() && admitted < 200) {
        ++admitted;
        backend->access(admitted, admitted * 64 * 31, false, 0);
    }
    while (!backend->idle()) {
        const Tick next = backend->nextEventAt();
        ASSERT_NE(next, tickNever);
        backend->advanceTo(next);
    }
    EXPECT_TRUE(backend->canAccept());
}

} // namespace
} // namespace secdimm::core

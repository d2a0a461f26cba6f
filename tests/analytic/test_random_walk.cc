#include <gtest/gtest.h>

#include "analytic/random_walk.hh"

namespace secdimm::analytic
{
namespace
{

TEST(RandomWalk, ZeroStepsNoOverflow)
{
    EXPECT_DOUBLE_EQ(overflowProbability(0, 16), 0.0);
}

TEST(RandomWalk, OverflowMonotonicInSteps)
{
    double prev = 0;
    for (std::uint64_t steps : {100u, 1000u, 10000u, 50000u}) {
        const double p = overflowProbability(steps, 16);
        EXPECT_GE(p, prev);
        prev = p;
    }
    EXPECT_GT(prev, 0.5);
}

TEST(RandomWalk, OverflowMonotonicInBufferSize)
{
    const std::uint64_t steps = 100000;
    const double p16 = overflowProbability(steps, 16);
    const double p64 = overflowProbability(steps, 64);
    const double p256 = overflowProbability(steps, 256);
    EXPECT_GT(p16, p64);
    EXPECT_GT(p64, p256);
}

TEST(RandomWalk, Figure13aAnchorPoints)
{
    // Paper: the 16-entry buffer reaches ~97% overflow probability by
    // 100K steps; at 800K steps the larger buffers reach ~91% (64),
    // ~70% (256), ~10% (1024).
    EXPECT_NEAR(overflowProbability(100000, 16), 0.97, 0.03);
    EXPECT_NEAR(overflowProbability(800000, 64), 0.91, 0.04);
    EXPECT_NEAR(overflowProbability(800000, 256), 0.70, 0.05);
    EXPECT_NEAR(overflowProbability(800000, 1024), 0.10, 0.05);
}

TEST(RandomWalk, ClosedFormMatchesRecursion)
{
    // The free walk's closed form against the F(s, k) recursion, on
    // cases small enough that the recursion's truncation of the
    // negative range is far below the tolerance.
    struct Case
    {
        std::uint64_t steps;
        unsigned bound;
        double pUp, pDown;
    };
    const Case cases[] = {
        {0, 1, 0.25, 0.25},   {5, 6, 0.25, 0.25},  {1, 1, 0.25, 0.25},
        {60, 3, 0.25, 0.25},  {200, 8, 0.25, 0.25}, {150, 5, 0.5, 0.5},
        {300, 10, 0.3, 0.2},  {300, 4, 0.25, 0.5},  {100, 6, 0.4, 0.1},
        {120, 7, 0.6, 0.0},   {90, 2, 0.05, 0.05},  {80, 3, 0.0, 0.5},
    };
    for (const Case &c : cases) {
        WalkParams p;
        p.pUp = c.pUp;
        p.pDown = c.pDown;
        EXPECT_NEAR(overflowProbability(c.steps, c.bound, p),
                    overflowRecursion(c.steps, c.bound, p), 1e-9)
            << "steps=" << c.steps << " bound=" << c.bound
            << " up=" << c.pUp << " down=" << c.pDown;
    }
}

TEST(RandomWalk, SimulationMatchesRecursion)
{
    const std::uint64_t steps = 20000;
    const unsigned bound = 32;
    const double exact = overflowProbability(steps, bound);
    const double sim =
        simulateOverflowProbability(steps, bound, 2000, 77);
    EXPECT_NEAR(sim, exact, 0.05);
}

TEST(RandomWalk, ReflectingQueueOverflowsFaster)
{
    // The physical queue (reflecting at zero) cannot waste time on
    // negative excursions, so it overflows sooner than the paper's
    // free walk.
    WalkParams reflect;
    reflect.reflectAtZero = true;
    const double p_free = overflowProbability(50000, 64);
    const double p_reflect = overflowProbability(50000, 64, reflect);
    EXPECT_GT(p_reflect, p_free);
}

TEST(RandomWalk, ReflectingSimulationMatchesRecursion)
{
    WalkParams reflect;
    reflect.reflectAtZero = true;
    const double exact = overflowProbability(10000, 32, reflect);
    const double sim = simulateOverflowProbability(10000, 32, 2000, 99,
                                                   reflect);
    EXPECT_NEAR(sim, exact, 0.05);
}

TEST(RandomWalk, AsymmetricWalkDrainsFaster)
{
    WalkParams drained;
    drained.pUp = 0.25;
    drained.pDown = 0.5; // Extra drain ops.
    const double p_sym = overflowProbability(100000, 64);
    const double p_drained = overflowProbability(100000, 64, drained);
    EXPECT_LT(p_drained, p_sym);
    EXPECT_LT(p_drained, 1e-3);
}

} // namespace
} // namespace secdimm::analytic

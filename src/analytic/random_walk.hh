/**
 * @file
 * The random-walk transfer-queue model of Section IV-C / Figure 13a:
 * with probability 1/4 the walk moves up (a block arrives without
 * service), 1/4 down (service without arrival), 1/2 it stays; the
 * paper's F(s, k) recursion describes the FREE walk on the integers,
 * and "overflow" is the event of having moved more than k steps above
 * the origin within s steps.
 *
 * A reflecting-at-zero variant (the physically-correct queue, which
 * overflows somewhat faster) is available through
 * WalkParams::reflectAtZero.
 */

#ifndef SECUREDIMM_ANALYTIC_RANDOM_WALK_HH
#define SECUREDIMM_ANALYTIC_RANDOM_WALK_HH

#include <cstdint>
#include <vector>

namespace secdimm::analytic
{

/** Step probabilities of the lazy random walk. */
struct WalkParams
{
    double pUp = 0.25;   ///< Arrival without service.
    double pDown = 0.25; ///< Service without arrival.
    // Stay probability is the remainder (0.5 in the paper's model).

    /**
     * false (default): the paper's free walk (position may go
     * negative).  true: reflect at zero (real queue occupancy).
     */
    bool reflectAtZero = false;
};

/**
 * Probability that the walk has REACHED position >= @p bound at least
 * once within @p steps steps (absorbing barrier at @p bound) -- the
 * "chance of piling up more than k blocks" curves of Figure 13a.
 * The free walk is summed in closed form in O(steps); the reflecting
 * walk runs overflowRecursion().
 */
double overflowProbability(std::uint64_t steps, unsigned bound,
                           const WalkParams &params = WalkParams{});

/**
 * The paper's F(s, k) dynamic-programming recursion for the same
 * probability, O(steps * (bound + depth)).  For the free walk it
 * truncates the negative range 4.5 sigma deep, so it agrees with the
 * closed form only up to that truncation (tests cross-check the two).
 */
double overflowRecursion(std::uint64_t steps, unsigned bound,
                         const WalkParams &params = WalkParams{});

/**
 * Simulate the walk with pseudo-random trials (validation of
 * overflowProbability; tests compare the two).
 */
double simulateOverflowProbability(std::uint64_t steps, unsigned bound,
                                   unsigned trials, std::uint64_t seed,
                                   const WalkParams &params =
                                       WalkParams{});

} // namespace secdimm::analytic

#endif // SECUREDIMM_ANALYTIC_RANDOM_WALK_HH

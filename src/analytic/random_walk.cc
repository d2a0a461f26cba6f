#include "analytic/random_walk.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace secdimm::analytic
{

namespace
{

/** x * log(y), taking 0 * log(0) as 0. */
double
xlogy(double x, double y)
{
    return x == 0.0 ? 0.0 : x * std::log(y);
}

/**
 * The free walk in closed form, O(steps).  Of the walk's @p steps
 * steps, M ~ Binomial(steps, w) move (w = pUp + pDown); the moves
 * form a simple walk going up with probability a = pUp / w.  That walk
 * first reaches @p bound at move m with probability
 * (bound / m) * P(S_m = bound) -- the hitting-time form of the
 * reflection principle, which holds for the biased walk too -- so
 * P(overflow) = sum_i P(M = i) * P(first passage at a move <= i).
 */
double
freeWalkOverflow(std::uint64_t steps, unsigned bound,
                 const WalkParams &params)
{
    SD_ASSERT(bound >= 1);
    SD_ASSERT(params.pUp + params.pDown <= 1.0 + 1e-12);
    const double w = std::min(1.0, params.pUp + params.pDown);
    if (params.pUp <= 0.0 || steps < bound)
        return 0.0;
    const double a = params.pUp / w;
    const double b = 1.0 - a;
    const double n = static_cast<double>(steps);
    const double lg_n = std::lgamma(n + 1.0);
    double passed = 0.0; // P(first passage at a move <= i).
    double total = 0.0;
    for (std::uint64_t i = bound; i <= steps; ++i) {
        const double m = static_cast<double>(i);
        const double lg_m = std::lgamma(m + 1.0);
        if ((i - bound) % 2 == 0) {
            const double up = (m + bound) / 2;
            const double down = (m - bound) / 2;
            passed += std::exp(std::log(bound / m) + lg_m -
                               std::lgamma(up + 1.0) -
                               std::lgamma(down + 1.0) + xlogy(up, a) +
                               xlogy(down, b));
        }
        total += passed * std::exp(lg_n - lg_m - std::lgamma(n - m + 1.0) +
                                   xlogy(m, w) + xlogy(n - m, 1.0 - w));
    }
    return total;
}

} // namespace

double
overflowProbability(std::uint64_t steps, unsigned bound,
                    const WalkParams &params)
{
    return params.reflectAtZero ? overflowRecursion(steps, bound, params)
                                : freeWalkOverflow(steps, bound, params);
}

double
overflowRecursion(std::uint64_t steps, unsigned bound,
                  const WalkParams &params)
{
    SD_ASSERT(bound >= 1);
    const double p_stay = 1.0 - params.pUp - params.pDown;
    SD_ASSERT(p_stay >= -1e-12);

    // Positions live in [-floor, bound]; index = position + floor.
    // For the free walk the negative range is truncated at a depth a
    // path essentially cannot climb back from within the remaining
    // steps (4.5 sigma below the barrier contributes < 1e-5).
    unsigned floor_depth = 0;
    if (!params.reflectAtZero) {
        const double sigma = std::sqrt(
            (params.pUp + params.pDown) * static_cast<double>(steps));
        floor_depth = static_cast<unsigned>(4.5 * sigma) + 1;
    }
    const std::size_t size =
        static_cast<std::size_t>(floor_depth) + bound + 1;
    const std::size_t origin = floor_depth;
    const std::size_t barrier = size - 1;

    std::vector<double> dist(size, 0.0);
    std::vector<double> next(size, 0.0);
    dist[origin] = 1.0;

    // Active window: positions that can hold mass grow by one per
    // step in each direction.
    std::size_t lo = origin, hi = origin;

    for (std::uint64_t s = 0; s < steps; ++s) {
        const std::size_t new_lo = lo > 1 ? lo - 1 : 0;
        const std::size_t new_hi = std::min(hi + 1, barrier);
        std::fill(next.begin() + static_cast<std::ptrdiff_t>(new_lo),
                  next.begin() + static_cast<std::ptrdiff_t>(new_hi) + 1,
                  0.0);
        for (std::size_t k = lo; k <= hi && k < barrier; ++k) {
            const double m = dist[k];
            if (m == 0.0)
                continue;
            next[k + 1] += m * params.pUp;
            if (k == 0) {
                // Bottom edge: reflecting (queue) or truncation
                // (free walk, mass parked harmlessly at the floor).
                next[0] += m * params.pDown;
            } else {
                next[k - 1] += m * params.pDown;
            }
            next[k] += m * p_stay;
        }
        next[barrier] += dist[barrier]; // Absorbed mass stays.
        dist.swap(next);
        lo = new_lo;
        hi = new_hi;
    }
    return dist[barrier];
}

double
simulateOverflowProbability(std::uint64_t steps, unsigned bound,
                            unsigned trials, std::uint64_t seed,
                            const WalkParams &params)
{
    Rng rng(seed);
    unsigned overflows = 0;
    for (unsigned t = 0; t < trials; ++t) {
        std::int64_t k = 0;
        for (std::uint64_t s = 0; s < steps; ++s) {
            const double u = rng.nextDouble();
            if (u < params.pUp) {
                ++k;
                if (k >= static_cast<std::int64_t>(bound)) {
                    ++overflows;
                    break;
                }
            } else if (u < params.pUp + params.pDown) {
                if (k > 0 || !params.reflectAtZero)
                    --k;
            }
        }
    }
    return static_cast<double>(overflows) / trials;
}

} // namespace secdimm::analytic

/**
 * @file
 * Command-line driver for the deterministic fuzz campaigns in
 * src/verify/fuzz.hh.  Exit status 0 when every selected campaign is
 * clean, 1 otherwise; the first failing case is printed so it can be
 * reproduced from (seed, iters) alone.
 *
 * Usage:
 *   sdimm_fuzz [--seed N] [--iters N]
 *              [--target codec|frames|link|messages|json|faults|
 *                        permanent|all]
 *              [--faults] [--permanent-faults]
 *
 * `--faults` (or `--target faults`) selects the fault-recovery soak:
 * each iteration is a whole randomized fault-injection campaign over
 * one secure protocol instance, so its default iteration count is
 * scaled down (one "faults" iteration costs ~10^3 parser iterations).
 *
 * `--permanent-faults` (or `--target permanent`) selects the
 * permanent-fault soak: each iteration kills one SDIMM or group
 * (stuck-at from boot, or hard death at a seeded access index drawn
 * from the seed) in a rotating secure design and checks watchdog
 * detection, quarantine, oblivious evacuation, and data survival.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "verify/fuzz.hh"

namespace
{

using secdimm::verify::FuzzResult;

struct Campaign
{
    const char *name;
    FuzzResult (*run)(std::uint64_t seed, std::uint64_t iters);
    /** Iterations per requested iteration (cost normalization). */
    std::uint64_t itersDivisor;
};

constexpr Campaign kCampaigns[] = {
    {"codec", secdimm::verify::fuzzCommandCodec, 1},
    {"frames", secdimm::verify::fuzzCommandFrames, 1},
    {"link", secdimm::verify::fuzzLinkSession, 1},
    {"messages", secdimm::verify::fuzzMessageCodecs, 1},
    {"json", secdimm::verify::fuzzJson, 1},
    {"faults", secdimm::verify::fuzzFaultRecovery, 1000},
    {"permanent", secdimm::verify::fuzzPermanentFaults, 1000},
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seed N] [--iters N] [--faults] "
        "[--permanent-faults] "
        "[--target codec|frames|link|messages|json|faults|permanent|"
        "all]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t iters = 100000;
    std::string target = "all";

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--seed") == 0 && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--iters") == 0 && has_value) {
            iters = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--target") == 0 && has_value) {
            target = argv[++i];
        } else if (std::strcmp(arg, "--faults") == 0) {
            target = "faults";
        } else if (std::strcmp(arg, "--permanent-faults") == 0) {
            target = "permanent";
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    bool matched = false;
    bool all_ok = true;
    for (const Campaign &c : kCampaigns) {
        if (target == "all") {
            // The soak campaigns only run when asked for: their cost
            // model differs from the parser campaigns'.
            if (std::strcmp(c.name, "faults") == 0 ||
                std::strcmp(c.name, "permanent") == 0) {
                continue;
            }
        } else if (target != c.name) {
            continue;
        }
        matched = true;
        const std::uint64_t n =
            std::max<std::uint64_t>(1, iters / c.itersDivisor);
        const FuzzResult r = c.run(seed, n);
        std::printf("%-8s seed=%llu iters=%llu failures=%llu %s\n",
                    c.name, static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(r.iterations),
                    static_cast<unsigned long long>(r.failures),
                    r.ok() ? "OK" : "FAIL");
        if (!r.ok()) {
            std::printf("  first failure: %s\n",
                        r.firstFailure.c_str());
            all_ok = false;
        }
    }
    if (!matched) {
        usage(argv[0]);
        return 2;
    }
    return all_ok ? 0 : 1;
}

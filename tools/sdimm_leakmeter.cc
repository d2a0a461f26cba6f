/**
 * @file
 * Leak-measurement CLI: runs the PLB locality mutual-information
 * experiment (verify/leak_meter.hh) over the functional designs and
 * the deliberately-leaky positive controls over a Path ORAM trace,
 * then emits one JSON report (stdout summary + file).
 *
 * Usage:
 *   sdimm_leakmeter [--design path|path-cached|freecursive|independent|
 *                     split|indepsplit|all]
 *                   [--requests N] [--seed N] [--out FILE] [--check]
 *
 * `--check` turns the paper's expectations into an exit status (for
 * CI): Freecursive MUST measure a nonzero PLB locality leak (its 95%
 * CI excludes zero), every flat-PosMap design must NOT (PathOram
 * both with every level in DRAM and as SecureMemorySystem serves it,
 * top levels in the ORAM cache: "path-cached"), and both
 * positive controls must fail the calibrated gate
 * (verify::compareCalibrated) on a second-order statistic while
 * every marginal statistic passes.  Exit 0 = expectations hold,
 * 1 = violated, 2 = usage error.
 *
 * `--kv` switches to the application-layer experiment instead: the
 * oblivious KV store's hit/miss MI under alternating hit-heavy and
 * miss-heavy phases (src/app/kv_leak.hh).  The oblivious index must
 * measure ~0 bits (95% CI includes zero) and the LeakyBaseline index
 * -- the positive control -- must not; --check gates exactly that.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "app/kv_leak.hh"
#include "crypto/aes128.hh"
#include "core/secure_memory_system.hh"
#include "oram/path_oram.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "verify/leak_meter.hh"

namespace
{

using namespace secdimm;

/**
 * Locality-phased MI measurement for a design as SecureMemorySystem
 * serves it, default options and all (the built-in harness builds
 * bare PathOram / Freecursive trees): two SDIMMs or groups of 6-level
 * trees, one 6-level Split tree, or a Path ORAM tree as deep as the
 * built-in one whose top levels sit in the default ORAM cache.
 */
verify::LeakReport
measureServedDesign(core::SecureMemorySystem::Protocol protocol,
                    const std::string &name,
                    const verify::PlbLeakOptions &opts)
{
    using Protocol = core::SecureMemorySystem::Protocol;
    core::SecureMemorySystem::Options o;
    o.protocol = protocol;
    std::uint64_t blocks = 256;
    if (protocol == Protocol::Split)
        blocks = 128;
    else if (protocol == Protocol::PathOram)
        blocks = std::uint64_t{2} << opts.dataLevels;
    o.capacityBytes = blocks * blockBytes;
    o.seed = opts.seed;
    core::SecureMemorySystem mem(o);
    verify::ChannelObserver obs;
    mem.attachObserver(obs);
    return verify::measureObservedLocalityLeak(
        name, mem.capacityBytes() / blockBytes, opts,
        [&](Addr a) { mem.readBlock(a); }, obs);
}

/** One positive control through the calibrated gate. */
struct ControlResult
{
    std::string name;
    /** addr_tv, kind_tv and count_delta pass: the control is
     *  invisible to every marginal statistic (expected). */
    bool marginalsPass = false;
    /** A statistic the control targets fails (wanted). */
    bool caught = false;
    std::string worst;
    double pValue = 1.0;
    double threshold = 0.0;
};

/** A Path ORAM bucket trace for the control experiments. */
std::vector<verify::TraceEvent>
controlTrace(std::uint64_t seed, std::size_t accesses)
{
    oram::OramParams p;
    p.levels = 8;
    p.stashCapacity = 200;
    oram::PathOram o(p, crypto::makeKey(0xc0, seed),
                     crypto::makeKey(0xc1, seed * 3 + 1), seed);
    verify::ChannelObserver obs;
    obs.attach(o);
    Rng rng(seed * 7 + 5);
    for (std::size_t i = 0; i < accesses; ++i)
        o.access(rng.nextBelow(o.params().capacityBlocks()),
                 oram::OramOp::Read, nullptr);
    // Bucket traces carry no timestamps; give them a uniform clock so
    // the timing controls have a rhythm to distort.
    std::vector<verify::TraceEvent> t = obs.events();
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i].at = 10 * i;
    return t;
}

/**
 * Control @p name: the calibrated gate over control traces drawn
 * from @p seed and the run's draw, where secret 1 applies @p leak;
 * it is caught when a statistic named in @p targets fails.
 */
template <typename Leak>
ControlResult
runControl(const std::string &name, std::uint64_t seed,
           const std::vector<std::string> &targets, Leak &&leak)
{
    const verify::CalibratedComparison c = verify::compareCalibrated(
        [&](unsigned secret, std::uint64_t draw) {
            verify::Observation o;
            std::vector<verify::TraceEvent> t =
                controlTrace(seed * 1000 + draw, 512);
            o.shardTraces.push_back(secret ? leak(std::move(t)) : t);
            return o;
        });
    ControlResult r;
    r.name = name;
    r.marginalsPass = c.passes("shard0.addr_tv") &&
                      c.passes("shard0.kind_tv") &&
                      c.passes("shard0.count_delta");
    for (const std::string &t : targets)
        r.caught = r.caught || !c.passes(t);
    r.worst = c.statistics[c.worst].name;
    r.pValue = c.statistics[c.worst].pValue;
    r.threshold = c.threshold;
    return r;
}

std::vector<ControlResult>
runControls(std::uint64_t seed)
{
    return {
        // Secret-keyed batch scheduler: one secret sorts its windows.
        runControl("ordering", seed, {"shard0.acf_addr"},
                   [](std::vector<verify::TraceEvent> t) {
                       return verify::injectOrderingLeak(std::move(t), 8);
                   }),
        // Secret-keyed slow path: one secret stalls after hot-half
        // addresses.
        runControl("timing", seed, {"shard0.acf_gap", "shard0.gap_profile"},
                   [](std::vector<verify::TraceEvent> t) {
                       std::uint64_t addr_hi = 0;
                       for (const verify::TraceEvent &e : t)
                           addr_hi = std::max(addr_hi, e.addr);
                       return verify::injectTimingLeak(std::move(t), 0,
                                                       addr_hi / 2, 40);
                   }),
    };
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--design path|path-cached|freecursive|"
                 "independent|split|indepsplit|all] [--requests N] "
                 "[--seed N] [--out FILE] [--check] [--kv]\n",
                 argv0);
}

/** The KV hit/miss experiment: oblivious index vs leaky control. */
int
runKvExperiment(std::size_t requests, std::uint64_t seed,
                const std::string &out_path, bool check)
{
    app::KvLeakOptions opts;
    opts.requests = requests;
    opts.seed = seed;

    std::vector<verify::LeakReport> reports;
    std::vector<bool> expect_leak;
    for (const app::KvIndexMode mode :
         {app::KvIndexMode::Oblivious,
          app::KvIndexMode::LeakyBaseline}) {
        opts.index = mode;
        const verify::LeakReport r = app::measureKvHitMissLeak(opts);
        std::printf("%s\n", r.summary().c_str());
        reports.push_back(r);
        expect_leak.push_back(mode == app::KvIndexMode::LeakyBaseline);
    }

    std::string json = "{\n  \"tool\": \"sdimm_leakmeter\",\n"
                       "  \"schema\": \"secdimm-leak-v1\",\n"
                       "  \"experiment\": \"kv-hit-miss\",\n"
                       "  \"seed\": " +
                       std::to_string(seed) +
                       ",\n  \"requests\": " + std::to_string(requests) +
                       ",\n  \"designs\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        json += i ? ",\n    " : "\n    ";
        json += reports[i].toJson();
    }
    json += "\n  ]\n}\n";

    std::ofstream f(out_path);
    if (f) {
        f << json;
        std::printf("report written to %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }

    if (!check)
        return 0;
    int violations = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const bool detected = reports[i].mi.leakDetected();
        if (detected != expect_leak[i]) {
            std::fprintf(stderr,
                         "CHECK FAILED: %s leak_detected=%d expected=%d "
                         "(%s)\n",
                         reports[i].design.c_str(), detected ? 1 : 0,
                         expect_leak[i] ? 1 : 0,
                         reports[i].mi.summary().c_str());
            ++violations;
        }
    }
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string design = "all";
    std::string out_path = "LEAK_measurements.json";
    std::size_t requests = 3000;
    std::uint64_t seed = 1;
    bool check = false;
    bool kv = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(arg, "--design") == 0 && has_value) {
            design = argv[++i];
        } else if (std::strcmp(arg, "--requests") == 0 && has_value) {
            requests = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(arg, "--out") == 0 && has_value) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--check") == 0) {
            check = true;
        } else if (std::strcmp(arg, "--kv") == 0) {
            kv = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (kv) {
        if (out_path == "LEAK_measurements.json")
            out_path = "LEAK_kv_measurements.json";
        return runKvExperiment(requests, seed, out_path, check);
    }

    verify::PlbLeakOptions opts;
    opts.requests = requests;
    opts.seed = seed;

    using Protocol = core::SecureMemorySystem::Protocol;
    struct DesignSpec
    {
        const char *cli;
        const char *name;
        Protocol protocol;
        bool expectLeak;
    };
    const std::vector<DesignSpec> specs = {
        {"path", "PathOram", Protocol::PathOram, false},
        {"path-cached", "PathOram-cached", Protocol::PathOram, false},
        {"freecursive", "Freecursive", Protocol::Freecursive, true},
        {"independent", "Independent", Protocol::Independent, false},
        {"split", "Split", Protocol::Split, false},
        {"indepsplit", "IndepSplit", Protocol::IndepSplit, false},
    };

    std::vector<verify::LeakReport> reports;
    std::vector<bool> expect_leak;
    for (const DesignSpec &spec : specs) {
        if (design != "all" && design != spec.cli)
            continue;
        verify::LeakReport r;
        if (std::strcmp(spec.cli, "path") == 0) {
            r = verify::measurePlbLocalityLeak(
                verify::LeakDesign::PathOram, opts);
        } else if (spec.protocol == Protocol::Freecursive) {
            r = verify::measurePlbLocalityLeak(
                verify::LeakDesign::Freecursive, opts);
        } else {
            r = measureServedDesign(spec.protocol, spec.name, opts);
        }
        std::printf("%s\n", r.summary().c_str());
        reports.push_back(r);
        expect_leak.push_back(spec.expectLeak);
    }
    if (reports.empty()) {
        usage(argv[0]);
        return 2;
    }

    const std::vector<ControlResult> controls = runControls(seed);
    for (const ControlResult &c : controls) {
        std::printf("control %-9s marginals=%s target=%s worst=%s p=%g "
                    "threshold=%g\n",
                    c.name.c_str(), c.marginalsPass ? "PASS" : "FAIL",
                    c.caught ? "CAUGHT" : "missed", c.worst.c_str(),
                    c.pValue, c.threshold);
    }

    std::string json = "{\n  \"tool\": \"sdimm_leakmeter\",\n"
                       "  \"schema\": \"secdimm-leak-v1\",\n"
                       "  \"seed\": " +
                       std::to_string(seed) +
                       ",\n  \"requests\": " + std::to_string(requests) +
                       ",\n  \"designs\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        json += i ? ",\n    " : "\n    ";
        json += reports[i].toJson();
    }
    json += "\n  ],\n  \"controls\": [";
    for (std::size_t i = 0; i < controls.size(); ++i) {
        json += i ? ",\n    " : "\n    ";
        json += "{\"name\": " + util::jsonQuote(controls[i].name) +
                ", \"marginals_pass\": " +
                (controls[i].marginalsPass ? "true" : "false") +
                ", \"caught\": " + (controls[i].caught ? "true" : "false") +
                ", \"worst\": " + util::jsonQuote(controls[i].worst) +
                ", \"p\": " + util::jsonNumber(controls[i].pValue) +
                ", \"threshold\": " +
                util::jsonNumber(controls[i].threshold) + "}";
    }
    json += "\n  ]\n}\n";

    std::ofstream f(out_path);
    if (f) {
        f << json;
        std::printf("report written to %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }

    if (!check)
        return 0;

    int violations = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const bool detected = reports[i].mi.leakDetected();
        if (detected != expect_leak[i]) {
            std::fprintf(stderr,
                         "CHECK FAILED: %s leak_detected=%d expected=%d "
                         "(%s)\n",
                         reports[i].design.c_str(), detected ? 1 : 0,
                         expect_leak[i] ? 1 : 0,
                         reports[i].mi.summary().c_str());
            ++violations;
        }
    }
    for (const ControlResult &c : controls) {
        if (!c.marginalsPass || !c.caught) {
            std::fprintf(stderr,
                         "CHECK FAILED: control %s marginalsPass=%d "
                         "caught=%d (want 1/1)\n",
                         c.name.c_str(), c.marginalsPass, c.caught);
            ++violations;
        }
    }
    return violations == 0 ? 0 : 1;
}

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
 * positive controls must be caught by the v2 statistics while
 * passing the v1 marginal checker.  Exit 0 = expectations hold,
 * 1 = violated, 2 = usage error.
 *
 * `--kv` switches to the application-layer experiment instead: the
 * oblivious KV store's hit/miss MI under alternating hit-heavy and
 * miss-heavy phases (src/app/kv_leak.hh).  The oblivious index must
 * measure ~0 bits (95% CI includes zero) and the LeakyBaseline index
 * -- the positive control -- must not; --check gates exactly that.
 */

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
#include "util/rng.hh"
#include "verify/leak_meter.hh"
#include "verify/trace_checker.hh"

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

/** One positive-control result: v1 verdict vs v2 verdict. */
struct ControlResult
{
    std::string name;
    bool v1Passes = false; ///< Marginal checker is fooled (expected).
    bool v2Catches = false; ///< Second-order statistics fire (wanted).
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

std::vector<ControlResult>
runControls(std::uint64_t seed)
{
    const std::vector<verify::TraceEvent> base_a =
        controlTrace(seed, 512);
    const std::vector<verify::TraceEvent> base_b =
        controlTrace(seed + 100, 512);

    std::uint64_t addr_hi = 0;
    for (const verify::TraceEvent &e : base_a)
        addr_hi = std::max(addr_hi, e.addr);

    std::vector<ControlResult> out;
    {
        // Secret-keyed batch scheduler: A sorts its windows, B does
        // not.
        ControlResult c;
        c.name = "ordering";
        const auto leaky = verify::injectOrderingLeak(base_a, 8);
        c.v1Passes =
            verify::compareTraces(leaky, base_b).indistinguishable;
        c.v2Catches = !verify::deepCompareTraces(leaky, base_b).pass;
        out.push_back(c);
    }
    {
        // Secret-keyed slow path: A stalls after hot-half addresses.
        ControlResult c;
        c.name = "timing";
        const auto leaky =
            verify::injectTimingLeak(base_a, 0, addr_hi / 2, 40);
        c.v1Passes =
            verify::compareTraces(leaky, base_b).indistinguishable;
        c.v2Catches = !verify::deepCompareTraces(leaky, base_b).pass;
        out.push_back(c);
    }
    return out;
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
        std::printf("control %-9s v1(marginal)=%s v2(second-order)=%s\n",
                    c.name.c_str(), c.v1Passes ? "PASS" : "FAIL",
                    c.v2Catches ? "CAUGHT" : "missed");
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
        json += std::string("{\"name\": \"") + controls[i].name +
                "\", \"marginal_checker_passes\": " +
                (controls[i].v1Passes ? "true" : "false") +
                ", \"second_order_catches\": " +
                (controls[i].v2Catches ? "true" : "false") + "}";
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
        if (!c.v1Passes || !c.v2Catches) {
            std::fprintf(stderr,
                         "CHECK FAILED: control %s v1Passes=%d "
                         "v2Catches=%d (want 1/1)\n",
                         c.name.c_str(), c.v1Passes, c.v2Catches);
            ++violations;
        }
    }
    return violations == 0 ? 0 : 1;
}

/**
 * @file
 * Benchmark entry point:
 *
 *   perfbench --workload <kv_zipf|split_64m|sim_fig8> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans <file>] [--commit <id>]
 *
 * Prints a host/build stamp, notes, and as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones and
 * writes the run's spans to --spans.  perfbench/run.py builds and runs
 * this binary; perfbench/README.md documents the workloads.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "crypto/cpu_features.hh"
#include "perfbench.hh"
#include "util/metrics.hh"

using namespace perfbench;
using secdimm::util::jsonNumber;
using secdimm::util::jsonQuote;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<kv_zipf|split_64m|sim_fig8> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>] [--commit <id>]\n",
                 why);
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Host and build identity, so results compare across hosts/commits. */
std::string
hostStamp(const std::string &commit)
{
    std::string flags;
    auto flag = [&flags](const char *f) {
        flags += (flags.empty() ? "" : ",") + jsonQuote(f);
    };
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release" && build_type != "RelWithDebInfo")
        flag("unoptimized-build");
#if defined(__SANITIZE_ADDRESS__)
    flag("asan");
#endif
#if defined(__SANITIZE_THREAD__)
    flag("tsan");
#endif
    return "{\"host\":{\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + jsonQuote(cpuModel()) + ",\"aes_impl\":" +
           jsonQuote(secdimm::crypto::aesImplName(
               secdimm::crypto::activeAesImpl())) +
           ",\"build_type\":" + jsonQuote(build_type) +
           ",\"compiler\":" + jsonQuote(__VERSION__) +
           ",\"commit\":" + jsonQuote(commit) + ",\"flags\":[" + flags +
           "]}}";
}

struct MetricName
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every untraced run reports all of them. */
constexpr MetricName kEndToEnd[] = {
    {"ops_per_s", "1/s"},   {"req_p50_us", "us"},    {"req_p90_us", "us"},
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
};

/**
 * Per-layer metrics: every traced run reports all of them; a layer the
 * workload does not exercise reads 0 (README.md maps each metric to the
 * workloads that exercise it).
 */
constexpr MetricName kPerLayer[] = {
    {"app.accesses_per_op", "accesses"},
    {"app.dummy_op_frac", "fraction"},
    {"serve.batch_mean", "requests"},
    {"serve.queue_depth_mean", "requests"},
    {"serve.handoff_us", "us"},
    {"oram.access_us", "us"},
    {"oram.stash_max", "blocks"},
    {"sdimm.channel_bytes_per_access", "B"},
    {"sdimm.local_bytes_per_access", "B"},
    {"sdimm.shadow_stash_max", "blocks"},
    {"mem.bytes_per_user_byte", "ratio"},
    {"mem.rss_growth_b_per_access", "B"},
    {"crypto.aes_blocks_per_access", "blocks"},
    {"crypto.mac_tags_per_access", "tags"},
    {"crypto.mac_batch_frac", "fraction"},
    {"crypto.aes_ns_per_block", "ns"},
    {"crypto.est_share", "fraction"},
    {"sim.records_per_s.freecursive", "1/s"},
    {"sim.records_per_s.indep2", "1/s"},
    {"sim.records_per_s.split2", "1/s"},
    {"dram.bursts_per_s", "1/s"},
    {"trace.us_per_record", "us"},
    {"sim.cycles.freecursive", "cycles"},
    {"sim.cycles.indep2", "cycles"},
    {"sim.cycles.split2", "cycles"},
    {"sim.norm_time.indep2", "ratio"},
    {"sim.norm_time.split2", "ratio"},
    {"dram.bursts_per_record", "bursts"},
    {"sim.access_orams_per_record", "accesses"},
    {"tracing.overhead_ops_per_s", "1/s"},
};

/**
 * Put @p r's metrics in the order of @p names, filling absent ones
 * with 0 when @p fill_absent.  Returns an error message, or "" when
 * every metric is present with its declared unit and finite.
 */
template <std::size_t N>
std::string
normalize(RunResult &r, const MetricName (&names)[N], bool fill_absent)
{
    std::vector<Metric> out;
    std::size_t found = 0;
    for (const MetricName &n : names) {
        const auto it =
            std::find_if(r.metrics.begin(), r.metrics.end(),
                         [&n](const Metric &m) { return m.name == n.name; });
        if (it == r.metrics.end()) {
            if (!fill_absent)
                return std::string("metric ") + n.name + " was not measured";
            out.push_back({n.name, 0.0, n.unit});
        } else if (it->unit != n.unit || !std::isfinite(it->value)) {
            return std::string("metric ") + n.name +
                   " has a wrong unit or is not finite";
        } else {
            out.push_back(*it);
            ++found;
        }
    }
    if (found != r.metrics.size())
        return "the workload reported an undeclared metric";
    r.metrics = std::move(out);
    return "";
}

std::string
resultJson(const RunResult &r)
{
    std::string metrics;
    for (const Metric &m : r.metrics) {
        metrics += (metrics.empty() ? "" : ", ") + jsonQuote(m.name) +
                   ": {\"value\": " + jsonNumber(m.value) +
                   ", \"unit\": " + jsonQuote(m.unit) + "}";
    }
    return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
           metrics + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string commit = "unknown";
    bool have_workload = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload") {
            cfg.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), nullptr, 0);
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(val.c_str(), nullptr);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = val == "1";
            have_trace = true;
        } else if (arg == "--spans") {
            cfg.spansPath = val;
        } else if (arg == "--commit") {
            commit = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || !have_trace || !(cfg.seconds > 0))
        usage("--workload, --trace and a positive --seconds are required");

    RunResult (*run)(const RunConfig &, SpanLog &) = nullptr;
    if (cfg.workload == "kv_zipf")
        run = runKvZipf;
    else if (cfg.workload == "split_64m")
        run = runSplit64m;
    else if (cfg.workload == "sim_fig8")
        run = runSimFig8;
    else
        usage(("unknown workload " + cfg.workload).c_str());

    std::printf("%s\n", hostStamp(commit).c_str());
    SpanLog spans(cfg.trace);
    RunResult r = run(cfg, spans);
    for (const std::string &note : r.notes)
        std::printf("# %s\n", note.c_str());
    const std::string bad = cfg.trace ? normalize(r, kPerLayer, true)
                                      : normalize(r, kEndToEnd, false);
    if (!bad.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", bad.c_str());
        return 1;
    }
    if (cfg.trace && !cfg.spansPath.empty()) {
        if (!spans.writeJsonLines(cfg.spansPath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         cfg.spansPath.c_str());
            return 1;
        }
        std::printf("# %zu spans written to %s\n", spans.size(),
                    cfg.spansPath.c_str());
    }
    std::printf("%s\n", resultJson(r).c_str());
    return 0;
}

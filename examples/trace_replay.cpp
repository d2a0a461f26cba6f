/**
 * @file
 * Drive the full timing simulator from the command line: pick a
 * workload and a memory design, replay the trace, and print the
 * metrics the paper's figures are built from.
 *
 *   $ ./examples/trace_replay                      # defaults
 *   $ ./examples/trace_replay mcf INDEP-SPLIT 2000
 *   $ ./examples/trace_replay --list
 *   $ ./examples/trace_replay mcf SPLIT-2 1000 --metrics      # JSON
 *   $ ./examples/trace_replay mcf SPLIT-2 1000 --metrics=m.json
 *
 * With --shards=N (optionally --batch=B) the same trace is instead
 * replayed through the functional sharded service (src/serve): N
 * worker-threaded ORAM shards, async submission, and serve.* metrics.
 *
 *   $ ./examples/trace_replay mcf --shards=4 --batch=8 2000 --metrics
 *
 * --fault-plan=<file-or-json> arms a fault campaign (the JSON schema
 * of docs/FAULTS.md) in either mode: every shard in sharded mode, or
 * the simulated memory system in timing mode.
 *
 *   $ ./examples/trace_replay mcf --shards=4 --fault-plan=plan.json
 *   $ ./examples/trace_replay mcf SPLIT-2 1000 \
 *         --fault-plan='{"link_drop_rate": 0.001}'
 *
 * --workload=zipfian:<theta>|hotset:<frac>|scan[:len]|mix:<file.json>
 * replaces the SPEC-profile trace with the KV workload engine
 * (src/app/kv_workload.hh): application-shaped slot traffic in BOTH
 * modes, reproducible via --workload-seed=N (default 1).
 *
 *   $ ./examples/trace_replay --workload=zipfian:0.99 SPLIT-2 2000
 *   $ ./examples/trace_replay --workload=hotset:0.1 --shards=4 \
 *         --workload-seed=7 2000
 *
 * In sharded mode --protocol=<pathoram|freecursive|independent|split|
 * indepsplit> picks each shard's backend (default pathoram) and
 * --degraded switches the fault response from retry-then-stop to
 * graceful degradation -- the combination byzantine fault plans need,
 * since lies are injected per SDIMM unit and conviction evacuates the
 * unit instead of fail-stopping:
 *
 *   $ ./examples/trace_replay mcf --shards=2 --protocol=independent \
 *         --degraded --fault-plan='{"byzantine_faults":[{"kind":
 *         "duty_cycle_liar","unit":1,"duty_cycle":0.25}],
 *         "mistrust_convict_threshold":0.12}'
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/kv_workload.hh"
#include "core/simulator.hh"
#include "fault/fault_plan_io.hh"
#include "serve/sharded_memory.hh"
#include "trace/workload.hh"

using namespace secdimm;
using namespace secdimm::core;

namespace
{

struct DesignRow
{
    const char *name;
    DesignPoint design;
};

const DesignRow designs[] = {
    {"NonSecure", DesignPoint::NonSecure},
    {"PathORAM", DesignPoint::PathOram},
    {"Freecursive", DesignPoint::Freecursive},
    {"INDEP-2", DesignPoint::Indep2},
    {"SPLIT-2", DesignPoint::Split2},
    {"INDEP-4", DesignPoint::Indep4},
    {"SPLIT-4", DesignPoint::Split4},
    {"INDEP-SPLIT", DesignPoint::IndepSplit},
};

void
listOptions()
{
    std::printf("workloads:");
    for (const auto &p : trace::spec2006Profiles())
        std::printf(" %s", p.name.c_str());
    std::printf("\ndesigns:  ");
    for (const auto &d : designs)
        std::printf(" %s", d.name);
    std::printf("\n");
}

/**
 * Resolve a --fault-plan argument: a readable file is loaded and
 * parsed, anything else is treated as inline JSON.  Returns false
 * (with a diagnostic on stderr) if the plan does not parse.
 */
/** Resolve a --protocol argument (sharded mode's shard backend). */
bool
parseProtocol(const char *name, SecureMemorySystem::Protocol *out)
{
    using Protocol = SecureMemorySystem::Protocol;
    if (std::strcmp(name, "pathoram") == 0)
        *out = Protocol::PathOram;
    else if (std::strcmp(name, "freecursive") == 0)
        *out = Protocol::Freecursive;
    else if (std::strcmp(name, "independent") == 0)
        *out = Protocol::Independent;
    else if (std::strcmp(name, "split") == 0)
        *out = Protocol::Split;
    else if (std::strcmp(name, "indepsplit") == 0)
        *out = Protocol::IndepSplit;
    else {
        std::fprintf(stderr,
                     "--protocol: unknown backend '%s' (expected "
                     "pathoram, freecursive, independent, split, or "
                     "indepsplit)\n",
                     name);
        return false;
    }
    return true;
}

bool
loadFaultPlan(const char *arg, fault::FaultPlan *out)
{
    std::string text = arg;
    if (std::FILE *f = std::fopen(arg, "rb")) {
        text.clear();
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    std::string err;
    const auto plan = fault::faultPlanFromJson(text, &err);
    if (!plan.has_value()) {
        std::fprintf(stderr, "--fault-plan: %s\n", err.c_str());
        return false;
    }
    *out = *plan;
    return true;
}

/** Dump or print a metrics registry per the --metrics flags. */
int
emitMetrics(const secdimm::util::MetricsRegistry &m,
            const std::string &metrics_path)
{
    const std::string json = m.toJson();
    if (metrics_path.empty()) {
        std::printf("\n%s\n", json.c_str());
        return 0;
    }
    std::FILE *f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
        std::printf("cannot write %s\n", metrics_path.c_str());
        return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nmetrics written to %s\n", metrics_path.c_str());
    return 0;
}

/** Total key population across a spec's tenants. */
std::uint64_t
kvTotalKeys(const app::KvWorkloadSpec &spec)
{
    if (spec.tenants.empty())
        return spec.keys;
    std::uint64_t total = 0;
    for (const auto &t : spec.tenants)
        total += kvTotalKeys(t);
    return total;
}

/** Multiply every (leaf) tenant's key population by @p factor. */
void
kvScaleKeys(app::KvWorkloadSpec &spec, std::uint64_t factor)
{
    spec.keys *= factor;
    for (auto &t : spec.tenants)
        kvScaleKeys(t, factor);
}

/**
 * Functional sharded replay: the workload's LLC-miss stream is
 * submitted asynchronously to a ShardedSecureMemory, exercising the
 * multi-threaded frontend end to end.
 */
int
replaySharded(const std::string &label, trace::RecordSource &gen,
              std::uint64_t accesses, unsigned shards, unsigned batch,
              SecureMemorySystem::Protocol protocol,
              fault::DegradationPolicy policy,
              const fault::FaultPlan &fault_plan, bool dump_metrics,
              const std::string &metrics_path)
{
    serve::ShardedSecureMemory::Options opt;
    opt.shard.protocol = protocol;
    opt.shard.capacityBytes = 1 << 20;
    opt.shard.seed = 1;
    opt.shard.faultPlan = fault_plan;
    opt.shard.degradationPolicy = policy;
    opt.numShards = shards;
    opt.maxBatch = batch == 0 ? 1 : batch;
    serve::ShardedSecureMemory mem(opt);

    std::printf("replaying %s through the sharded service (%u shards, "
                "batch %u, %llu accesses)...\n",
                label.c_str(), shards, opt.maxBatch,
                static_cast<unsigned long long>(accesses));

    const std::uint64_t cap = mem.capacityBlocks();
    std::vector<std::future<BlockData>> pending;
    std::uint64_t shard_failures = 0;
    // With a fault plan armed a shard can fail-stop mid-replay; its
    // requests then resolve with the typed error, which the replay
    // absorbs and counts instead of crashing.
    const auto settle = [&] {
        for (auto &f : pending) {
            try {
                f.get();
            } catch (const serve::ShardFailedError &) {
                ++shard_failures;
            }
        }
        pending.clear();
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const trace::TraceRecord rec = gen.next();
        const Addr block = (rec.addr / blockBytes) % cap;
        if (rec.write) {
            BlockData d{};
            d[0] = static_cast<std::uint8_t>(i);
            pending.push_back(mem.submitWrite(block, d));
        } else {
            pending.push_back(mem.submitRead(block));
        }
        if (pending.size() >= 64)
            settle();
    }
    settle();
    mem.drain();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    const util::MetricsRegistry m = mem.metrics();
    std::printf("\naccesses submitted:       %llu\n",
                static_cast<unsigned long long>(accesses));
    std::printf("wall time:                %.3f s  (%.0f accesses/sec)\n",
                secs, secs > 0 ? static_cast<double>(accesses) / secs : 0.0);
    std::printf("accessORAM operations:    %llu\n",
                static_cast<unsigned long long>(
                    m.counter("core.accesses")));
    for (unsigned s = 0; s < shards; ++s) {
        const std::string p = "serve.s" + std::to_string(s);
        std::printf("shard %u: %llu requests, queue high-water %.0f, "
                    "%llu enqueue stalls, health %s\n",
                    s,
                    static_cast<unsigned long long>(
                        m.counter(p + ".accesses")),
                    m.gauge(p + ".queue_high_water"),
                    static_cast<unsigned long long>(
                        m.counter(p + ".enqueue_stalls")),
                    serve::shardHealthName(mem.shardHealth(s)));
    }
    if (fault_plan.enabled()) {
        std::uint64_t detected = 0, recovered = 0, unrecovered = 0;
        for (unsigned s = 0; s < shards; ++s) {
            const util::MetricsRegistry sm = mem.shardMetrics(s);
            detected += sm.counter("fault.detected.total");
            recovered += sm.counter("fault.recovered.total");
            unrecovered += sm.counter("fault.unrecovered.total");
        }
        std::printf("faults:                   %llu detected, "
                    "%llu recovered, %llu unrecovered, "
                    "%llu requests failed typed\n",
                    static_cast<unsigned long long>(detected),
                    static_cast<unsigned long long>(recovered),
                    static_cast<unsigned long long>(unrecovered),
                    static_cast<unsigned long long>(shard_failures));
    }
    std::printf("integrity:                %s\n",
                mem.integrityOk() ? "ok" : "FAILED");
    if (dump_metrics)
        return emitMetrics(m, metrics_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--list") == 0) {
        listOptions();
        return 0;
    }

    // Split --metrics[=path] / --shards=N / --batch=B off from the
    // positional arguments.
    bool dump_metrics = false;
    std::string metrics_path; // Empty = stdout.
    unsigned shards = 0;      // 0 = timing-simulator mode.
    unsigned batch = 1;
    SecureMemorySystem::Protocol protocol =
        SecureMemorySystem::Protocol::PathOram;
    fault::DegradationPolicy policy =
        fault::DegradationPolicy::RetryThenStop;
    fault::FaultPlan fault_plan = fault::FaultPlan::none();
    std::optional<app::KvWorkloadSpec> kv_spec;
    std::uint64_t workload_seed = 1;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--metrics") == 0) {
            dump_metrics = true;
        } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
            dump_metrics = true;
            metrics_path = argv[i] + 10;
        } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
            shards = static_cast<unsigned>(
                std::strtoul(argv[i] + 9, nullptr, 0));
        } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
            batch = static_cast<unsigned>(
                std::strtoul(argv[i] + 8, nullptr, 0));
        } else if (std::strncmp(argv[i], "--protocol=", 11) == 0) {
            if (!parseProtocol(argv[i] + 11, &protocol))
                return 1;
        } else if (std::strcmp(argv[i], "--degraded") == 0) {
            policy = fault::DegradationPolicy::Degraded;
        } else if (std::strncmp(argv[i], "--fault-plan=", 13) == 0) {
            if (!loadFaultPlan(argv[i] + 13, &fault_plan))
                return 1;
        } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
            std::string err;
            kv_spec = app::parseKvWorkloadFlag(argv[i] + 11, &err);
            if (!kv_spec.has_value()) {
                std::fprintf(stderr, "--workload: %s\n", err.c_str());
                return 1;
            }
        } else if (std::strncmp(argv[i], "--workload-seed=", 16) == 0) {
            workload_seed = std::strtoull(argv[i] + 16, nullptr, 0);
        } else {
            pos.push_back(argv[i]);
        }
    }

    // With --workload= the SPEC-profile positional is dropped; the
    // remaining positionals keep their roles.
    const std::size_t base = kv_spec.has_value() ? 0 : 1;
    const std::string workload =
        !kv_spec.has_value() && !pos.empty() ? pos[0] : "mcf";
    const std::string kv_label =
        kv_spec.has_value()
            ? std::string("kv:") +
                  app::kvWorkloadKindName(kv_spec->kind) +
                  " (seed " + std::to_string(workload_seed) + ")"
            : "";

    if (shards > 0) {
        // Sharded functional replay: [workload] [accesses].
        std::uint64_t accesses = 1000;
        for (std::size_t i = base; i < pos.size(); ++i) {
            char *end = nullptr;
            const std::uint64_t v = std::strtoull(pos[i], &end, 0);
            if (end != pos[i] && *end == '\0') {
                accesses = v;
                break;
            }
        }
        if (kv_spec.has_value()) {
            app::KvBlockStream gen(*kv_spec, workload_seed,
                                   /*footprint_bytes=*/1 << 20);
            return replaySharded(kv_label, gen, accesses, shards,
                                 batch, protocol, policy, fault_plan,
                                 dump_metrics, metrics_path);
        }
        const trace::WorkloadProfile *profile =
            trace::findProfile(workload);
        if (profile == nullptr) {
            std::printf("unknown workload '%s'\n", workload.c_str());
            listOptions();
            return 1;
        }
        trace::TraceGenerator gen(*profile, 1);
        return replaySharded(profile->name, gen, accesses, shards,
                             batch, protocol, policy, fault_plan,
                             dump_metrics, metrics_path);
    }

    const std::string design_name =
        pos.size() > base ? pos[base] : "SPLIT-2";
    const std::uint64_t accesses =
        pos.size() > base + 1
            ? std::strtoull(pos[base + 1], nullptr, 0)
            : 1000;

    const trace::WorkloadProfile *profile =
        kv_spec.has_value() ? nullptr : trace::findProfile(workload);
    if (!kv_spec.has_value() && profile == nullptr) {
        std::printf("unknown workload '%s'\n", workload.c_str());
        listOptions();
        return 1;
    }
    const DesignRow *row = nullptr;
    for (const auto &d : designs) {
        if (design_name == d.name)
            row = &d;
    }
    if (row == nullptr) {
        std::printf("unknown design '%s'\n", design_name.c_str());
        listOptions();
        return 1;
    }

    SystemConfig cfg = makeConfig(row->design, 24, 7);
    cfg.faultPlan = fault_plan;
    SimLengths lens;
    lens.measureRecords = accesses;
    lens.warmupRecords = 20000;

    std::printf("replaying %s on %s (%llu measured LLC-miss records, "
                "24-level tree, 7 cached)...\n",
                kv_spec.has_value() ? kv_label.c_str()
                                    : workload.c_str(),
                row->name, static_cast<unsigned long long>(accesses));

    SimResult r;
    try {
        if (kv_spec.has_value()) {
            // Application-shaped traffic through the timing simulator.
            // The records pass the Table II cache hierarchy first, so a
            // key population whose slots fit inside the 2 MB LLC never
            // reaches the ORAM at all; scale the population until the
            // working set spills (the shapes -- zipf skew, hot fractions,
            // scan runs -- are population-relative, so they survive).
            const std::uint64_t slot_bytes = 4 * 64;
            const std::uint64_t spill_keys = (8ULL << 20) / slot_bytes;
            const std::uint64_t total = kvTotalKeys(*kv_spec);
            if (total < spill_keys) {
                kvScaleKeys(*kv_spec,
                            (spill_keys + total - 1) / total);
                std::printf("(key population scaled %llu -> %llu so the "
                            "working set spills the 2 MB LLC)\n",
                            static_cast<unsigned long long>(total),
                            static_cast<unsigned long long>(
                                kvTotalKeys(*kv_spec)));
            }
            app::KvBlockStream gen(*kv_spec, workload_seed,
                                   /*footprint_bytes=*/1 << 26);
            r = runWorkloadFromSource(cfg, gen, lens, 1);
        } else {
            r = runWorkload(cfg, *profile, lens, 1);
        }
    } catch (const std::invalid_argument &e) {
        // e.g. a fault plan on a design whose timing model has none.
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("\ncycles (memory clock):    %llu\n",
                static_cast<unsigned long long>(r.core.cycles));
    std::printf("instructions retired:     %llu (IPC %.3f)\n",
                static_cast<unsigned long long>(r.core.instructions),
                r.core.ipc());
    std::printf("L1 misses replayed:       %llu\n",
                static_cast<unsigned long long>(r.core.l1Misses));
    std::printf("LLC misses (to memory):   %llu\n",
                static_cast<unsigned long long>(r.core.llcMisses));
    std::printf("memory cycles per miss:   %.0f\n", r.cyclesPerMiss());
    if (r.accessOrams) {
        std::printf("accessORAM operations:    %llu (%.2f per miss)\n",
                    static_cast<unsigned long long>(r.accessOrams),
                    r.avgOramsPerMiss);
    }
    std::printf("off-DIMM channel bursts:  %llu\n",
                static_cast<unsigned long long>(r.offDimmLines));
    if (r.probes) {
        std::printf("PROBE polls:              %llu\n",
                    static_cast<unsigned long long>(r.probes));
    }
    std::printf("memory energy:            %.1f uJ  (act/pre %.1f, "
                "rd/wr %.1f, io %.1f, bkgd %.1f, refresh %.1f)\n",
                r.energy.totalNj() / 1000.0,
                r.energy.actPreNj / 1000.0, r.energy.rdWrNj / 1000.0,
                r.energy.ioNj / 1000.0, r.energy.backgroundNj / 1000.0,
                r.energy.refreshNj / 1000.0);
    if (fault_plan.enabled()) {
        std::printf("faults:                   %llu detected, "
                    "%llu recovered, %llu unrecovered\n",
                    static_cast<unsigned long long>(
                        r.metrics.counter("fault.detected.total")),
                    static_cast<unsigned long long>(
                        r.metrics.counter("fault.recovered.total")),
                    static_cast<unsigned long long>(
                        r.metrics.counter("fault.unrecovered.total")));
    }

    if (dump_metrics) {
        const std::string json = r.metrics.toJson();
        if (metrics_path.empty()) {
            std::printf("\n%s\n", json.c_str());
        } else {
            std::FILE *f = std::fopen(metrics_path.c_str(), "w");
            if (f == nullptr) {
                std::printf("cannot write %s\n", metrics_path.c_str());
                return 1;
            }
            std::fwrite(json.data(), 1, json.size(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("\nmetrics written to %s\n",
                        metrics_path.c_str());
        }
    }
    return 0;
}

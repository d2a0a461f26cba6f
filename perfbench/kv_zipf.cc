/**
 * @file
 * Workload kv_zipf: the oblivious KV store (app::ObliviousKVStore) over
 * 2 Path ORAM shards, preloaded with 16384 keys, driven by one
 * closed-loop client with YCSB zipf(0.99) traffic: 80% gets (5% of
 * them for absent keys), 96-byte values.  One request is 16 generated
 * ops sent as one multiGet plus one multiPut; op = one KV op.
 */

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/kv_store.hh"
#include "app/kv_workload.hh"
#include "core/secure_memory_system.hh"
#include "perfbench.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using secdimm::app::KvOp;
using secdimm::app::KvWorkloadGenerator;
using secdimm::app::ObliviousKVStore;
using secdimm::util::MetricsRegistry;

constexpr unsigned kShards = 2;
constexpr std::uint64_t kKeys = 16384;
constexpr std::size_t kOpsPerRequest = 16;
constexpr std::size_t kPreloadBatch = 64;
constexpr int kSetups = 3;
/** Requests whose layer counters must repeat exactly for a seed. */
constexpr std::uint64_t kExactRequests = 256;
constexpr int kProbeReads = 1500;
/** Requests after which peak memory is read.  The program's access
 *  traces grow with every access, so a fixed amount of work keeps the
 *  reading independent of how fast the run went. */
constexpr std::uint64_t kPeakRequests = 4000;

secdimm::app::KvWorkloadSpec
workloadSpec()
{
    secdimm::app::KvWorkloadSpec spec;
    spec.kind = secdimm::app::KvWorkloadKind::Zipfian;
    spec.keys = kKeys;
    spec.zipfTheta = 0.99;
    spec.getFraction = 0.8;
    spec.missFraction = 0.05;
    spec.valueBytes = 96;
    return spec;
}

ObliviousKVStore::Options
storeOptions()
{
    ObliviousKVStore::Options opt;
    opt.serve.shard.protocol =
        secdimm::core::SecureMemorySystem::Protocol::PathOram;
    opt.serve.shard.seed = 1;
    opt.serve.numShards = kShards;
    opt.serve.maxBatch = 8;
    opt.capacityKeys = kKeys;
    opt.seed = 1;
    // Free-slot slack of a quarter of the keys, as bench_kv_throughput.
    const std::uint64_t record = 6 + opt.maxKeyBytes + opt.maxValueBytes;
    const std::uint64_t blocks_per_slot =
        (record + secdimm::blockBytes - 1) / secdimm::blockBytes;
    const std::uint64_t slots = kKeys + kKeys / 4 + 4;
    opt.serve.shard.capacityBytes =
        slots * blocks_per_slot * secdimm::blockBytes;
    return opt;
}

/** The client's view of what the store must hold. */
using Shadow = std::unordered_map<std::string, std::string>;

/** Construct the store and preload every resident key. */
std::unique_ptr<ObliviousKVStore>
setUp(const ObliviousKVStore::Options &opt, Shadow &shadow)
{
    auto store = std::make_unique<ObliviousKVStore>(opt);
    const std::vector<KvOp> preload =
        KvWorkloadGenerator(workloadSpec(), 0).preload();
    std::vector<std::pair<std::string, std::string>> batch;
    shadow.clear();
    for (const KvOp &op : preload) {
        batch.emplace_back(op.key, op.value);
        shadow[op.key] = op.value;
        if (batch.size() == kPreloadBatch) {
            store->multiPut(batch);
            batch.clear();
        }
    }
    if (!batch.empty())
        store->multiPut(batch);
    store->drain();
    return store;
}

/** Mean of the serve.sN.<suffix> histograms between two snapshots. */
double
serveHistMean(const MetricsRegistry &before, const MetricsRegistry &after,
              const std::string &suffix)
{
    double sum = 0.0, count = 0.0;
    for (unsigned s = 0; s < kShards; ++s) {
        const std::string name = "serve.s" + std::to_string(s) + "." + suffix;
        if (const auto *h = after.findHistogram(name)) {
            sum += h->sum();
            count += static_cast<double>(h->count());
        }
        if (const auto *h = before.findHistogram(name)) {
            sum -= h->sum();
            count -= static_cast<double>(h->count());
        }
    }
    return count > 0 ? sum / count : 0.0;
}

/**
 * Probe the service handoff: synchronous ShardedSecureMemory::readBlock
 * on shard 0 against a direct SecureMemorySystem::readBlock built from
 * the same shardOptions(), interleaved so both see the same host speed.
 */
void
probeHandoff(RunResult &r, ObliviousKVStore &store,
             const ObliviousKVStore::Options &opt, std::uint64_t seed,
             SpanLog &spans, double &direct_us)
{
    secdimm::core::SecureMemorySystem direct(
        secdimm::serve::ShardedSecureMemory::shardOptions(opt.serve, 0));
    secdimm::serve::ShardedSecureMemory &svc = store.service();
    const std::uint64_t direct_blocks =
        direct.capacityBytes() / secdimm::blockBytes;
    const std::uint64_t shard0_blocks = svc.capacityBlocks() / kShards;
    secdimm::Rng rng(seed * 1000003 + 71);
    std::vector<double> d_direct, d_sharded;
    for (int i = 0; i < kProbeReads; ++i) {
        {
            const secdimm::Addr a = rng.nextBelow(direct_blocks);
            ScopedSpan span(spans, kProbeTraceBase + i, -1,
                            "core.SecureMemorySystem.readBlock");
            const auto t0 = Clock::now();
            (void)direct.readBlock(a);
            d_direct.push_back(microsBetween(t0, Clock::now()));
        }
        {
            const secdimm::Addr a = rng.nextBelow(shard0_blocks) * kShards;
            ScopedSpan span(spans, kProbeTraceBase + i, -1,
                            "serve.ShardedSecureMemory.readBlock");
            const auto t0 = Clock::now();
            (void)svc.readBlock(a);
            d_sharded.push_back(microsBetween(t0, Clock::now()));
        }
    }
    direct_us = median(d_direct);
    r.add("serve.handoff_us", median(d_sharded) - direct_us, "us");
    r.add("oram.access_us", direct_us, "us");
}

} // namespace

RunResult
runKvZipf(const RunConfig &cfg, SpanLog &spans)
{
    RunResult r;
    const ObliviousKVStore::Options opt = storeOptions();

    Shadow shadow;
    std::vector<double> setup_s;
    auto t_setup = Clock::now();
    std::unique_ptr<ObliviousKVStore> store = setUp(opt, shadow);
    setup_s.push_back(secondsBetween(t_setup, Clock::now()));
    const unsigned slot_blocks = store->blocksPerSlot();

    MetricsRegistry m_setup, m_exact;
    double rss_setup = 0.0;
    if (cfg.trace) {
        m_setup = store->metrics();
        rss_setup = currentRssBytes();
    }

    KvWorkloadGenerator gen(workloadSpec(), cfg.seed);
    std::vector<Request> done;
    // Traced runs trace every other request; the rest measure overhead.
    double busy_s[2] = {0.0, 0.0};
    std::uint64_t ops_by_parity[2] = {0, 0};
    std::uint64_t requests = 0;
    double peak_mb = 0.0;

    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    while (Clock::now() < deadline ||
           (cfg.trace && requests < kExactRequests)) {
        std::vector<KvOp> req;
        std::vector<std::string> get_keys;
        std::vector<std::pair<std::string, std::string>> puts;
        for (std::size_t i = 0; i < kOpsPerRequest; ++i) {
            req.push_back(gen.next());
            if (req.back().put)
                puts.emplace_back(req.back().key, req.back().value);
            else
                get_keys.push_back(req.back().key);
        }

        const bool traced = cfg.trace && requests % 2 == 0;
        SpanLog off(false);
        SpanLog &log = traced ? spans : off;
        std::vector<std::optional<std::string>> got;
        bool threw = false;
        const auto t0 = Clock::now();
        {
            ScopedSpan rs(log, requests, -1, "kv_zipf.request");
            try {
                {
                    ScopedSpan s(log, requests, rs.index(),
                                 "app.ObliviousKVStore.multiGet");
                    got = store->multiGet(get_keys);
                }
                ScopedSpan s(log, requests, rs.index(),
                             "app.ObliviousKVStore.multiPut");
                store->multiPut(puts);
            } catch (const std::exception &e) {
                threw = true;
                r.notes.push_back(std::string("request failed: ") +
                                  e.what());
            }
        }
        const auto t1 = Clock::now();
        done.push_back({t0, t1, req.size()});
        busy_s[traced ? 1 : 0] += secondsBetween(t0, t1);
        ops_by_parity[traced ? 1 : 0] += req.size();

        // Gets observe the pre-request state; puts then apply in order.
        r.attempted += req.size();
        if (threw || got.size() != get_keys.size()) {
            r.failed += req.size();
        } else {
            for (std::size_t i = 0; i < get_keys.size(); ++i) {
                const auto it = shadow.find(get_keys[i]);
                const bool ok = it == shadow.end()
                                    ? !got[i].has_value()
                                    : got[i] && *got[i] == it->second;
                if (!ok)
                    ++r.failed;
            }
            for (auto &[key, value] : puts)
                shadow[key] = value;
        }
        ++requests;
        if (requests == kPeakRequests)
            peak_mb = peakRssMb();
        if (cfg.trace && requests == kExactRequests)
            m_exact = store->metrics();
    }
    const auto end = Clock::now();

    if (!store->integrityOk()) {
        r.checksFailed = true;
        r.notes.push_back("integrityOk() is false after the run");
    }
    r.notes.push_back("kv_zipf: " + std::to_string(requests) +
                      " requests of " + std::to_string(kOpsPerRequest) +
                      " ops in " + std::to_string(secondsBetween(start, end)) +
                      " s");

    if (!cfg.trace) {
        addTimingMetrics(r, done);
        // Peak memory covers one store; more set-ups follow for timing.
        r.add("peak_rss_mb", peak_mb > 0 ? peak_mb : peakRssMb(), "MiB");
        for (int i = 1; i < kSetups; ++i) {
            store.reset();
            t_setup = Clock::now();
            store = setUp(opt, shadow);
            setup_s.push_back(secondsBetween(t_setup, Clock::now()));
        }
        r.add("setup_s", median(setup_s), "s");
        return r;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    const double exact_ops =
        static_cast<double>(kExactRequests * kOpsPerRequest);
    const double accesses_per_op =
        counterDelta(m_setup, m_exact, "serve.requests") / exact_ops;
    if (accesses_per_op != 2.0 * slot_blocks) {
        r.checksFailed = true;
        r.notes.push_back("block accesses per KV op differ from "
                          "2 * blocksPerSlot");
    }
    r.add("app.accesses_per_op", accesses_per_op, "accesses");
    r.add("app.dummy_op_frac",
          counterDelta(m_setup, m_exact, "kv.dummy_ops") /
              (counterDelta(m_setup, m_exact, "kv.gets") +
               counterDelta(m_setup, m_exact, "kv.puts")),
          "fraction");
    r.add("serve.batch_mean", serveHistMean(m_setup, m_exact, "batch_size"),
          "requests");
    r.add("serve.queue_depth_mean",
          serveHistMean(m_setup, m_exact, "queue_depth"), "requests");
    const double aes_per_access = addCryptoPerAccess(r, m_setup, m_exact);

    double stash_max = 0.0;
    for (unsigned s = 0; s < kShards; ++s) {
        stash_max = std::max(
            stash_max, static_cast<double>(store->service().shardMetrics(s)
                                               .counter("oram.data.stash.max")));
    }
    r.add("oram.stash_max", stash_max, "blocks");

    const MetricsRegistry m_end = store->metrics();
    const double rss_end = currentRssBytes();
    const double accesses = counterDelta(m_setup, m_end, "serve.requests");
    // Growth of the program itself: the span log is the benchmark's.
    r.add("mem.rss_growth_b_per_access",
          (rss_end - rss_setup - spans.bytes()) / accesses, "B");
    r.add("mem.bytes_per_user_byte",
          rss_setup / static_cast<double>(store->service().capacityBytes()),
          "ratio");

    double direct_us = 0.0;
    probeHandoff(r, *store, opt, cfg.seed, spans, direct_us);
    const double aes_ns = aesNsPerBlock(spans);
    r.add("crypto.aes_ns_per_block", aes_ns, "ns");
    r.add("crypto.est_share", aes_per_access * aes_ns / (direct_us * 1e3),
          "fraction");

    const double untraced = ops_by_parity[0] / busy_s[0];
    const double traced = ops_by_parity[1] / busy_s[1];
    r.add("tracing.overhead_ops_per_s", traced - untraced, "1/s");
    return r;
}

} // namespace perfbench

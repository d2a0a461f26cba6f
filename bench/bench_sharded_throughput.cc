/**
 * @file
 * Scaling of the sharded oblivious memory service (src/serve): total
 * accesses/sec at fixed TOTAL capacity for 1/2/4/8 shards, with and
 * without per-shard request batching, under a multi-client mixed
 * read/write stress workload.  This is the scaling-trajectory number
 * the ROADMAP's "sharding/batching" lever is judged by.
 *
 * Two effects compose:
 *  - parallelism: N worker threads run N independent ORAMs (needs
 *    cores to show up -- the printed table records the machine's
 *    hardware concurrency for context);
 *  - tree depth: at fixed total capacity each shard's tree is
 *    log2(N) levels shallower, so even single-core machines see some
 *    speedup per access.
 *
 * Scale with SDIMM_SHARD_BENCH_OPS (default 2000 accesses per point)
 * and SDIMM_SHARD_BENCH_CLIENTS (default 8).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "crypto/cpu_features.hh"
#include "serve/sharded_memory.hh"
#include "util/rng.hh"

using namespace secdimm;
using serve::ShardedSecureMemory;

namespace
{

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    if (const char *v = std::getenv(name))
        return std::strtoull(v, nullptr, 0);
    return fallback;
}

struct Point
{
    unsigned shards;
    unsigned batch;
    double accessesPerSec = 0.0;
    double wallMs = 0.0;
};

/** One client: a window of async requests over its own block stripe. */
void
clientLoop(ShardedSecureMemory &mem, unsigned client,
           std::uint64_t ops)
{
    Rng rng(0xbe9c4 + client);
    const std::uint64_t cap = mem.capacityBlocks();
    const std::uint64_t stripe = cap / 8 ? cap / 8 : 1;
    const Addr base = (client % 8) * stripe;
    std::vector<std::future<BlockData>> window;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Addr block = base + rng.nextBelow(stripe);
        if (rng.nextBool(0.5)) {
            BlockData d{};
            d[0] = static_cast<std::uint8_t>(i);
            window.push_back(mem.submitWrite(block, d));
        } else {
            window.push_back(mem.submitRead(block));
        }
        // Cap the in-flight window so futures don't pile up unboundedly.
        if (window.size() >= 32) {
            for (auto &f : window)
                f.get();
            window.clear();
        }
    }
    for (auto &f : window)
        f.get();
}

Point
runPoint(unsigned shards, unsigned batch, std::uint64_t total_ops,
         unsigned clients, bench::JsonReport &report)
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::PathOram;
    opt.shard.capacityBytes = 1 << 20; // Fixed TOTAL capacity.
    opt.shard.seed = 1;
    opt.numShards = shards;
    opt.queueCapacity = 64;
    opt.maxBatch = batch;
    ShardedSecureMemory mem(opt);

    const std::uint64_t per_client = total_ops / clients;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> ts;
    ts.reserve(clients);
    for (unsigned c = 0; c < clients; ++c)
        ts.emplace_back(
            [&mem, c, per_client] { clientLoop(mem, c, per_client); });
    for (auto &t : ts)
        t.join();
    mem.drain();
    const auto t1 = std::chrono::steady_clock::now();

    Point p;
    p.shards = shards;
    p.batch = batch;
    p.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double secs = p.wallMs / 1000.0;
    const double done = static_cast<double>(per_client * clients);
    p.accessesPerSec = secs > 0 ? done / secs : 0.0;

    const std::string name = "shards" + std::to_string(shards) +
                             "_batch" + std::to_string(batch);
    report.add(name, mem.metrics());
    report.set(name, "accesses_per_sec", p.accessesPerSec);
    report.set(name, "wall_ms", p.wallMs);
    report.setCount(name, "clients", clients);
    report.setCount(name, "ops", per_client * clients);
    report.setCount(name, "aes_impl_id",
                    static_cast<std::uint64_t>(
                        static_cast<int>(crypto::activeAesImpl())));
    return p;
}

} // namespace

int
main()
{
    bench::header("sharded service throughput scaling",
                  "ROADMAP scale lever (sharding/batching the "
                  "functional facade); Palermo-style ORAM parallelism");
    const std::uint64_t ops = envOr("SDIMM_SHARD_BENCH_OPS", 2000);
    const unsigned clients = static_cast<unsigned>(
        envOr("SDIMM_SHARD_BENCH_CLIENTS", 8));
    std::printf("hardware concurrency: %u threads; %llu accesses per "
                "point, %u clients\n\n",
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(ops), clients);

    bench::JsonReport report("sharded_throughput");
    std::printf("%-8s %-7s %14s %10s %12s\n", "shards", "batch",
                "accesses/sec", "wall ms", "vs 1 shard");
    double base_nobatch = 0.0;
    for (unsigned batch : {1u, 8u}) {
        double base = 0.0;
        for (unsigned shards : {1u, 2u, 4u, 8u}) {
            const Point p = runPoint(shards, batch, ops, clients, report);
            if (shards == 1)
                base = p.accessesPerSec;
            if (shards == 1 && batch == 1)
                base_nobatch = p.accessesPerSec;
            const std::string name = "shards" + std::to_string(shards) +
                                     "_batch" + std::to_string(batch);
            report.set(name, "scaling_vs_1shard",
                       base > 0 ? p.accessesPerSec / base : 0.0);
            std::printf("%-8u %-7u %14.0f %10.1f %11.2fx\n", shards,
                        batch, p.accessesPerSec, p.wallMs,
                        base > 0 ? p.accessesPerSec / base : 0.0);
        }
        std::printf("\n");
    }
    if (base_nobatch > 0) {
        std::printf("(batching column compares against the same shard "
                    "count without batching;\n aggregate scaling needs "
                    "cores -- see hardware concurrency above)\n");
    }
    return 0;
}

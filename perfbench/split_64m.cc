/**
 * @file
 * Workload split_64m: core::SecureMemorySystem with Protocol::Split
 * over 2 SDIMMs at 64 MiB, called directly (no app or serve layer).
 * Uniform random block addresses, half writes and half reads; one
 * request is one block access, op = one block access.
 */

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/secure_memory_system.hh"
#include "perfbench.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using secdimm::Addr;
using secdimm::BlockData;
using secdimm::core::SecureMemorySystem;
using secdimm::util::MetricsRegistry;

constexpr int kSetups = 3;
/** Accesses whose layer counters must repeat exactly for a seed. */
constexpr std::uint64_t kExactAccesses = 2000;
/** Accesses after which peak memory is read (see kv_zipf.cc). */
constexpr std::uint64_t kPeakAccesses = 150000;

SecureMemorySystem::Options
memoryOptions()
{
    SecureMemorySystem::Options opt;
    opt.protocol = SecureMemorySystem::Protocol::Split;
    opt.numSdimms = 2;
    opt.capacityBytes = 64ULL << 20;
    opt.seed = 1;
    return opt;
}

/** Deterministic content of version @p version of block @p addr. */
BlockData
blockFor(Addr addr, std::uint64_t version)
{
    BlockData b{};
    secdimm::Rng rng(addr * 1000003 + version);
    for (std::size_t i = 0; i < b.size(); i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(b.data() + i, &w, 8);
    }
    return b;
}

} // namespace

RunResult
runSplit64m(const RunConfig &cfg, SpanLog &spans)
{
    RunResult r;
    std::vector<double> setup_s;
    auto t_setup = Clock::now();
    auto mem = std::make_unique<SecureMemorySystem>(memoryOptions());
    setup_s.push_back(secondsBetween(t_setup, Clock::now()));
    const std::uint64_t blocks = mem->capacityBytes() / secdimm::blockBytes;

    MetricsRegistry m_setup, m_exact;
    double rss_setup = 0.0;
    if (cfg.trace) {
        m_setup = mem->metrics();
        rss_setup = currentRssBytes();
    }

    // Version of each block (0: never written, reads as zeros), sized
    // up front so the run's memory growth is the program's own.
    std::vector<std::uint32_t> shadow(blocks, 0);
    const double rss_start = cfg.trace ? currentRssBytes() : 0.0;
    std::uint64_t distinct_written = 0;
    secdimm::Rng rng(cfg.seed * 1000003 + 29);
    std::vector<Request> done;
    double busy_s[2] = {0.0, 0.0};
    std::uint64_t ops_by_parity[2] = {0, 0};
    std::uint64_t ops = 0;
    double peak_mb = 0.0;

    std::optional<CpuRotator> rotator(std::in_place);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    while (Clock::now() < deadline ||
           (cfg.trace && ops < kExactAccesses)) {
        rotator->tick();
        const Addr addr = rng.nextBelow(blocks);
        const bool write = rng.nextBool(0.5);
        const bool traced = cfg.trace && ops % 2 == 0;
        SpanLog off(false);
        SpanLog &log = traced ? spans : off;
        ++r.attempted;

        const auto version = static_cast<std::uint32_t>(ops + 1);
        const BlockData data = write ? blockFor(addr, version) : BlockData{};
        BlockData got{};
        const auto t0 = Clock::now();
        {
            ScopedSpan s(log, ops, -1,
                         write ? "core.SecureMemorySystem.writeBlock"
                               : "core.SecureMemorySystem.readBlock");
            if (write)
                mem->writeBlock(addr, data);
            else
                got = mem->readBlock(addr);
        }
        const auto t1 = Clock::now();
        // Traced runs keep only the exact prefix, for the same reason.
        if (!cfg.trace || ops < kExactAccesses)
            done.push_back({t0, t1, 1});
        busy_s[traced ? 1 : 0] += secondsBetween(t0, t1);

        if (write) {
            distinct_written += shadow[addr] == 0;
            shadow[addr] = version;
        } else {
            const BlockData want = shadow[addr] == 0
                                       ? secdimm::zeroBlock()
                                       : blockFor(addr, shadow[addr]);
            if (got != want)
                ++r.failed;
        }
        ++ops_by_parity[traced ? 1 : 0];
        ++ops;
        if (ops == kPeakAccesses)
            peak_mb = peakRssMb();
        if (cfg.trace && ops == kExactAccesses)
            m_exact = mem->metrics();
    }
    const auto end = Clock::now();
    rotator.reset(); // set-ups and probes run unpinned

    if (!mem->integrityOk()) {
        r.checksFailed = true;
        r.notes.push_back("integrityOk() is false after the run");
    }
    r.notes.push_back("split_64m: " + std::to_string(ops) +
                      " block accesses in " +
                      std::to_string(secondsBetween(start, end)) +
                      " s, " + std::to_string(distinct_written) +
                      " distinct blocks written");

    if (!cfg.trace) {
        addTimingMetrics(r, done);
        // Peak memory covers one instance; more set-ups follow for timing.
        r.add("peak_rss_mb", peak_mb > 0 ? peak_mb : peakRssMb(), "MiB");
        for (int i = 1; i < kSetups; ++i) {
            mem.reset();
            t_setup = Clock::now();
            mem = std::make_unique<SecureMemorySystem>(memoryOptions());
            setup_s.push_back(secondsBetween(t_setup, Clock::now()));
        }
        r.add("setup_s", median(setup_s), "s");
        return r;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    const double exact_accesses =
        counterDelta(m_setup, m_exact, "core.accesses");
    r.add("sdimm.channel_bytes_per_access",
          counterDelta(m_setup, m_exact, "sdimm.split.channel_bytes") /
              exact_accesses,
          "B");
    r.add("sdimm.local_bytes_per_access",
          counterDelta(m_setup, m_exact, "sdimm.split.local_bytes") /
              exact_accesses,
          "B");
    r.add("sdimm.shadow_stash_max",
          static_cast<double>(m_exact.counter("sdimm.split.shadow_stash.max")),
          "blocks");
    const double aes_per_access = addCryptoPerAccess(r, m_setup, m_exact);

    const MetricsRegistry m_end = mem->metrics();
    const double accesses = counterDelta(m_setup, m_end, "core.accesses");
    // Growth of the program itself: the span log is the benchmark's.
    r.add("mem.rss_growth_b_per_access",
          (currentRssBytes() - rss_start - spans.bytes()) / accesses, "B");
    r.add("mem.bytes_per_user_byte",
          rss_setup / static_cast<double>(mem->capacityBytes()), "ratio");

    std::vector<double> access_us;
    for (const Request &q : done)
        access_us.push_back(microsBetween(q.start, q.end));
    const double aes_ns = aesNsPerBlock(spans);
    r.add("crypto.aes_ns_per_block", aes_ns, "ns");
    r.add("crypto.est_share",
          aes_per_access * aes_ns / (median(std::move(access_us)) * 1e3),
          "fraction");

    const double untraced = ops_by_parity[0] / busy_s[0];
    const double traced = ops_by_parity[1] / busy_s[1];
    r.add("tracing.overhead_ops_per_s", traced - untraced, "1/s");
    return r;
}

} // namespace perfbench

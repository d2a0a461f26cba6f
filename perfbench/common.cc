#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "crypto/aes128.hh"
#include "perfbench.hh"

namespace perfbench
{

std::int64_t
SpanLog::begin(std::uint64_t trace, std::int64_t parent, const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.trace = trace;
    s.parent = parent;
    s.name = name;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
SpanLog::end(std::int64_t index)
{
    if (index >= 0)
        spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

bool
SpanLog::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    origin_)
            .count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"trace\":" << s.trace
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << ns(s.start)
            << ",\"end_ns\":" << ns(s.end) << "}\n";
    }
    return static_cast<bool>(out);
}

double
quantile(std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    // The epsilon keeps exact ranks (0.99 * 1000) from rounding up.
    const double rank = std::ceil(q * static_cast<double>(xs.size()) - 1e-9);
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

double
currentRssBytes()
{
    long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

CpuRotator::CpuRotator()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &mask))
                cpus_.push_back(c);
        }
    }
}

CpuRotator::~CpuRotator()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int c : cpus_)
        CPU_SET(c, &mask);
    sched_setaffinity(0, sizeof(mask), &mask);
}

void
CpuRotator::tick()
{
    const auto now = Clock::now();
    if (cpus_.size() < 2 || now - last_ < std::chrono::milliseconds(50))
        return;
    last_ = now;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[next_], &mask);
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof(mask), &mask);
}

double
counterDelta(const secdimm::util::MetricsRegistry &before,
             const secdimm::util::MetricsRegistry &after,
             const std::string &name)
{
    return static_cast<double>(after.counter(name)) -
           static_cast<double>(before.counter(name));
}

double
addCryptoPerAccess(RunResult &r, const secdimm::util::MetricsRegistry &before,
                   const secdimm::util::MetricsRegistry &after)
{
    const double accesses = counterDelta(before, after, "core.accesses");
    const double tags = counterDelta(before, after, "crypto.mac_tags");
    const double aes =
        accesses > 0
            ? counterDelta(before, after, "crypto.aes_blocks") / accesses
            : 0.0;
    r.add("crypto.aes_blocks_per_access", aes, "blocks");
    r.add("crypto.mac_tags_per_access", accesses > 0 ? tags / accesses : 0.0,
          "tags");
    r.add("crypto.mac_batch_frac",
          tags > 0 ? counterDelta(before, after, "crypto.mac_batch_tags") / tags
                   : 0.0,
          "fraction");
    return aes;
}

double
aesNsPerBlock(SpanLog &spans)
{
    constexpr std::size_t kBlocks = 4096; // 64 KiB per call
    constexpr int kReps = 200;
    secdimm::crypto::Aes128 aes(secdimm::crypto::makeKey(0x5eed, 0xae5));
    std::vector<std::uint8_t> buf(kBlocks * 16, 0x5a);
    std::vector<double> ns;
    for (int i = 0; i < kReps; ++i) {
        ScopedSpan span(spans, kProbeTraceBase + i, -1,
                        "crypto.encryptBlocks");
        const auto t0 = Clock::now();
        aes.encryptBlocks(buf.data(), buf.data(), kBlocks);
        const auto t1 = Clock::now();
        ns.push_back(microsBetween(t0, t1) * 1e3 / kBlocks);
    }
    return median(std::move(ns));
}

void
addTimingMetrics(RunResult &r, const std::vector<Request> &requests)
{
    std::vector<double> rate, p50, p90;
    for (std::size_t i = 0; i + kWindow <= requests.size(); i += kWindow) {
        std::vector<double> us;
        std::uint64_t ops = 0;
        for (std::size_t j = i; j < i + kWindow; ++j) {
            us.push_back(microsBetween(requests[j].start, requests[j].end));
            ops += requests[j].ops;
        }
        rate.push_back(static_cast<double>(ops) /
                       secondsBetween(requests[i].start,
                                      requests[i + kWindow - 1].end));
        p50.push_back(quantile(us, 0.50));
        p90.push_back(quantile(us, 0.90));
    }
    r.notes.push_back(std::to_string(requests.size()) + " requests in " +
                      std::to_string(rate.size()) + " windows of " +
                      std::to_string(kWindow));
    if (rate.empty())
        return; // too short: main() reports the missing metrics
    r.add("ops_per_s", quantile(rate, 0.90), "1/s");
    r.add("req_p50_us", quantile(p50, 0.10), "us");
    r.add("req_p90_us", quantile(p90, 0.10), "us");
}

} // namespace perfbench

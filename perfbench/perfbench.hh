/**
 * @file
 * Shared declarations of the benchmark program: run configuration, the
 * result every workload returns, the in-memory span log of traced
 * runs, and small measurement helpers.  perfbench/README.md explains
 * the workloads and every metric.
 */

#ifndef SECUREDIMM_PERFBENCH_PERFBENCH_HH
#define SECUREDIMM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Microseconds elapsed between two steady-clock points. */
inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** What one invocation measures (parsed from the command line). */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where a traced run writes its spans (JSON lines). */
    std::string spansPath;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run, printed as the final JSON line. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** A check outside the per-op ones failed (integrity, determinism). */
    bool checksFailed = false;
    std::vector<Metric> metrics;
    /** Free-form facts printed before the result (sample counts...). */
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    bool correct() const { return failed == 0 && !checksFailed; }
};

/**
 * Spans of a traced run, kept in memory and written out at the end.
 * A span is a timed call into one layer; the spans of one request
 * share a trace id and point at their parent span.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t trace = 0;
        std::int64_t parent = -1; ///< Index of the parent span, or -1.
        const char *name = "";
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (or -1 when disabled). */
    std::int64_t begin(std::uint64_t trace, std::int64_t parent,
                       const char *name);
    void end(std::int64_t index);

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

    /** Bytes the recorded spans occupy (resident once written). */
    double bytes() const
    {
        return static_cast<double>(spans_.size() * sizeof(Span));
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Trace ids of probe calls start here, apart from request ids. */
constexpr std::uint64_t kProbeTraceBase = 1ULL << 32;

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::uint64_t trace, std::int64_t parent,
               const char *name)
        : log_(log), index_(log.begin(trace, parent, name))
    {
    }
    ~ScopedSpan() { log_.end(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return index_; }

  private:
    SpanLog &log_;
    std::int64_t index_;
};

/** Nearest-rank quantile of @p xs (sorted in place); 0 when empty. */
double quantile(std::vector<double> &xs, double q);

/** Median (quantile 0.5). */
inline double
median(std::vector<double> xs)
{
    return quantile(xs, 0.5);
}

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Current resident set of this process, in bytes. */
double currentRssBytes();

/** Counter @p name in @p after minus the same counter in @p before. */
double counterDelta(const secdimm::util::MetricsRegistry &before,
                    const secdimm::util::MetricsRegistry &after,
                    const std::string &name);

/**
 * crypto.aes_blocks_per_access, crypto.mac_tags_per_access and
 * crypto.mac_batch_frac over the interval between two snapshots of a
 * SecureMemorySystem-backed registry.  Returns AES blocks per access.
 */
double addCryptoPerAccess(RunResult &r,
                          const secdimm::util::MetricsRegistry &before,
                          const secdimm::util::MetricsRegistry &after);

/** Probe: median ns per block of crypto::Aes128::encryptBlocks. */
double aesNsPerBlock(SpanLog &spans);

/** One closed-loop request of a measured phase. */
struct Request
{
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t ops = 0;
};

/**
 * Moves the calling thread to the next CPU of its affinity mask every
 * 50 ms while it lives, and restores the mask on destruction.  At any
 * moment another tenant can slow one vCPU of the host for minutes; a
 * single-threaded run rotated over all of them is not decided by where
 * the scheduler happened to put it.
 */
class CpuRotator
{
  public:
    CpuRotator();
    ~CpuRotator();

    CpuRotator(const CpuRotator &) = delete;
    CpuRotator &operator=(const CpuRotator &) = delete;

    /** Call often; migrates when the current period is over. */
    void tick();

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    Clock::time_point last_ = Clock::now();
};

/** Consecutive requests per window of the timing metrics. */
constexpr std::size_t kWindow = 100;

/**
 * The end-to-end timing metrics, over consecutive windows of kWindow
 * requests: ops_per_s is the 90th percentile over windows of the
 * window's ops per second, req_p50_us and req_p90_us the 10th
 * percentile over windows of the window's median and 90th percentile
 * latency (10 samples lie beyond every window's p90).  Other tenants
 * of the host slow the program in bursts of a few seconds; reading the
 * good end of the windows keeps those bursts out of the figures.
 * Adds nothing when no window is complete.
 */
void addTimingMetrics(RunResult &r, const std::vector<Request> &requests);

RunResult runKvZipf(const RunConfig &cfg, SpanLog &spans);
RunResult runSplit64m(const RunConfig &cfg, SpanLog &spans);
RunResult runSimFig8(const RunConfig &cfg, SpanLog &spans);

} // namespace perfbench

#endif // SECUREDIMM_PERFBENCH_PERFBENCH_HH

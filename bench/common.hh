/**
 * @file
 * Shared scaffolding for the figure/table benches: workload list,
 * simulation-length env knobs, and table formatting.  Every bench
 * prints the paper's expected values next to the measured ones so
 * EXPERIMENTS.md can be regenerated from bench output.
 */

#ifndef SECUREDIMM_BENCH_COMMON_HH
#define SECUREDIMM_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "trace/workload.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace secdimm::bench
{

/** Simulation lengths honoring SDIMM_BENCH_* env overrides. */
inline core::SimLengths
lengths(std::uint64_t measure = 1000, std::uint64_t warmup = 20000)
{
    return core::benchLengths(measure, warmup);
}

/** The paper's ten workloads. */
inline const std::vector<trace::WorkloadProfile> &
workloads()
{
    return trace::spec2006Profiles();
}

/** Geometric mean (the paper reports averages over benchmarks). */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/** Print the standard bench header. */
inline void
header(const char *title, const char *paper_ref)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    const auto l = lengths();
    std::printf("simulation: %llu warm-up + %llu measured LLC-miss "
                "records per workload\n",
                static_cast<unsigned long long>(l.warmupRecords),
                static_cast<unsigned long long>(l.measureRecords));
    std::printf("(scale with SDIMM_BENCH_ACCESSES / "
                "SDIMM_BENCH_WARMUP)\n");
    std::printf("==================================================="
                "=========================\n");
}

/**
 * Machine-readable bench output: accumulates one MetricsRegistry per
 * design point and writes them as BENCH_<name>.json next to the
 * printed table (docs/METRICS.md documents the schema).  The file
 * lands in the current directory, or in $SDIMM_BENCH_JSON_DIR when
 * set.  Writing happens in the destructor, so a bench only has to
 * construct one of these and feed it.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    ~JsonReport()
    {
        if (!written_)
            write();
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /** Merge a run's metrics snapshot into design point @p point. */
    void
    add(const std::string &point, const util::MetricsRegistry &m)
    {
        points_[point].merge(m);
    }

    /** Record a bench-level scalar under "bench.<metric>". */
    void
    set(const std::string &point, const std::string &metric, double v)
    {
        points_[point].setGauge("bench." + metric, v);
    }

    /** Counter variant of set() for integer-valued results. */
    void
    setCount(const std::string &point, const std::string &metric,
             std::uint64_t v)
    {
        points_[point].setCounter("bench." + metric, v);
    }

    /** Direct access to a point's registry (get-or-create). */
    util::MetricsRegistry &
    point(const std::string &point)
    {
        return points_[point];
    }

    /** Write the snapshot now; returns the path (empty on failure). */
    std::string
    write()
    {
        written_ = true;
        std::string dir = ".";
        if (const char *d = std::getenv("SDIMM_BENCH_JSON_DIR"))
            dir = d;
        const std::string path = dir + "/BENCH_" + name_ + ".json";

        const auto l = lengths();
        std::string out = "{\n";
        out += "  \"bench\": " + util::jsonQuote(name_) + ",\n";
        out += "  \"schema\": \"secdimm-bench-v1\",\n";
        out += "  \"lengths\": {\"warmup_records\": " +
               std::to_string(l.warmupRecords) +
               ", \"measure_records\": " +
               std::to_string(l.measureRecords) + "},\n";
        out += "  \"points\": {";
        bool first = true;
        for (const auto &[name, reg] : points_) {
            if (!first)
                out += ',';
            first = false;
            out += "\n    " + util::jsonQuote(name) + ": ";
            out += reg.toJson(4);
        }
        if (!first)
            out += "\n  ";
        out += "}\n}\n";

        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "JsonReport: cannot write %s\n",
                         path.c_str());
            return {};
        }
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        // On stderr: a bench's stdout may be machine-read (e.g.
        // google-benchmark's --benchmark_format=json).
        std::fprintf(stderr, "\nmetrics snapshot: %s\n", path.c_str());
        return path;
    }

  private:
    std::string name_;
    bool written_ = false;
    std::map<std::string, util::MetricsRegistry> points_;
};

} // namespace secdimm::bench

#endif // SECUREDIMM_BENCH_COMMON_HH

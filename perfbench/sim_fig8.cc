/**
 * @file
 * Workload sim_fig8: the timing simulator (core::runWorkload) on the
 * mcf profile for Freecursive, INDEP-2 and SPLIT-2 at the Figure 8
 * configuration (makeConfig(d, 24, 7)), with a fixed warm-up and
 * measured record count per design.  A round simulates the three
 * designs once; rounds repeat until the run's time is up, and every
 * repeat must reproduce the first round's simulated statistics.
 * op = one measured trace record (warm-up records only touch the
 * LLC, at about 0.1 us each); one request is kRecordsPerRequest
 * consecutive measured records.
 */

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/system_config.hh"
#include "perfbench.hh"
#include "trace/cache.hh"
#include "trace/workload.hh"

namespace perfbench
{

namespace
{

using secdimm::core::DesignPoint;
using secdimm::util::MetricsRegistry;

struct Design
{
    DesignPoint point;
    const char *key;
};

constexpr std::array<Design, 3> kDesigns = {{
    {DesignPoint::Freecursive, "freecursive"},
    {DesignPoint::Indep2, "indep2"},
    {DesignPoint::Split2, "split2"},
}};

/** The repository's default bench lengths (bench/common.hh). */
constexpr std::uint64_t kWarmup = 20000;
constexpr std::uint64_t kMeasure = 1000;
constexpr std::uint64_t kRecords = kWarmup + kMeasure;
constexpr std::uint64_t kRecordsPerRequest = 4;
constexpr int kSetupSamplesPerRound = 5;
/** Rounds every run makes, and the ones its timing metrics read: a
 *  fixed count, because the fastest of more repeats reads faster. */
constexpr std::uint64_t kTimedRounds = 3;
constexpr int kTraceProbeRuns = 20;

/** runWorkload() seeds its generator with this mix of the run seed. */
constexpr std::uint64_t kGeneratorSeedMix = 0xabcdef;

/** The simulated statistics that must repeat exactly for a seed. */
struct Exact
{
    std::uint64_t cycles = 0;
    std::uint64_t accessOrams = 0;
    std::uint64_t bursts = 0;

    bool operator==(const Exact &) const = default;
};

/** DRAM bursts: reads + writes over every simulated channel. */
std::uint64_t
dramBursts(const MetricsRegistry &m)
{
    std::uint64_t total = 0;
    auto ends_with = [](const std::string &s, const std::string &suffix) {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
                   0;
    };
    for (const auto &[name, value] : m.counters()) {
        if (name.rfind("dram.", 0) == 0 &&
            (ends_with(name, ".reads") || ends_with(name, ".writes")))
            total += value;
    }
    return total;
}

/**
 * The generator runWorkload() would pull from, wrapped so every pull
 * is time-stamped; request spans open and close at request
 * boundaries of the measured phase.
 */
class TimedSource : public secdimm::trace::RecordSource
{
  public:
    TimedSource(const secdimm::trace::WorkloadProfile &profile,
                std::uint64_t seed, std::vector<Clock::time_point> &stamps,
                SpanLog &spans, std::uint64_t trace, std::int64_t parent,
                CpuRotator &rotator)
        : gen_(profile, seed ^ kGeneratorSeedMix), stamps_(stamps),
          spans_(spans), trace_(trace), parent_(parent), rotator_(rotator)
    {
    }

    ~TimedSource() override { spans_.end(open_); }

    TimedSource(const TimedSource &) = delete;
    TimedSource &operator=(const TimedSource &) = delete;

    secdimm::trace::TraceRecord next() override
    {
        const std::uint64_t i = pulled_++;
        if (i >= kWarmup && (i - kWarmup) % kRecordsPerRequest == 0) {
            spans_.end(open_);
            rotator_.tick();
            open_ = spans_.begin(trace_, parent_, "sim.request");
        }
        stamps_.push_back(Clock::now());
        return gen_.next();
    }

  private:
    secdimm::trace::TraceGenerator gen_;
    std::vector<Clock::time_point> &stamps_;
    SpanLog &spans_;
    std::uint64_t trace_;
    std::int64_t parent_;
    CpuRotator &rotator_;
    std::int64_t open_ = -1;
    std::uint64_t pulled_ = 0;
};

/** Construct each design's backend and warm an LLC as a run would. */
double
setUpOnce(const secdimm::trace::WorkloadProfile &profile, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    for (const Design &d : kDesigns) {
        const auto config = secdimm::core::makeConfig(d.point, 24, 7);
        const auto backend = secdimm::core::buildBackend(config, seed);
        secdimm::trace::CacheModel llc(2ULL << 20, 8);
        secdimm::trace::TraceGenerator gen(profile, seed ^ kGeneratorSeedMix);
        for (std::uint64_t i = 0; i < kWarmup; ++i) {
            const auto rec = gen.next();
            llc.access(rec.addr, rec.write);
        }
    }
    return secondsBetween(t0, Clock::now());
}

} // namespace

RunResult
runSimFig8(const RunConfig &cfg, SpanLog &spans)
{
    RunResult r;
    const secdimm::trace::WorkloadProfile *profile =
        secdimm::trace::findProfile("mcf");
    secdimm::core::SimLengths lengths;
    lengths.warmupRecords = kWarmup;
    lengths.measureRecords = kMeasure;

    std::vector<double> setup_s;
    // Every round repeats identical work, so the fastest of the first
    // kTimedRounds repeats of each request is the one least disturbed
    // by other tenants of the host.
    std::array<std::vector<double>, kDesigns.size()> fastest_us;
    std::array<Exact, kDesigns.size()> first{};
    std::array<double, kDesigns.size()> design_s{};
    std::array<std::uint64_t, kDesigns.size()> design_runs{};
    // Traced runs trace every other round; the rest measure overhead.
    double round_s[2] = {0.0, 0.0};
    std::uint64_t rounds_by_parity[2] = {0, 0};
    std::uint64_t ops = 0, rounds = 0;
    // Read after two rounds, which every run makes, so later ones do not
    // move it.
    double peak_mb = 0.0;
    const double rss_start = currentRssBytes();

    std::optional<CpuRotator> rotator(std::in_place);
    const auto start = Clock::now();
    while (rounds < kTimedRounds ||
           secondsBetween(start, Clock::now()) < cfg.seconds) {
        if (!cfg.trace) {
            for (int i = 0; i < kSetupSamplesPerRound; ++i)
                setup_s.push_back(setUpOnce(*profile, cfg.seed));
        }
        const bool traced = cfg.trace && rounds % 2 == 0;
        SpanLog off(false);
        SpanLog &log = traced ? spans : off;
        const auto r0 = Clock::now();
        ScopedSpan round_span(log, rounds, -1, "sim.round");
        for (std::size_t d = 0; d < kDesigns.size(); ++d) {
            const auto config =
                secdimm::core::makeConfig(kDesigns[d].point, 24, 7);
            std::vector<Clock::time_point> stamps;
            stamps.reserve(kRecords + 1);
            const auto t0 = Clock::now();
            secdimm::core::SimResult res;
            {
                ScopedSpan s(log, rounds, round_span.index(),
                             "core.runWorkload");
                TimedSource source(*profile, cfg.seed, stamps, log, rounds,
                                   s.index(), *rotator);
                res = secdimm::core::runWorkloadFromSource(config, source,
                                                           lengths, cfg.seed);
            }
            stamps.push_back(Clock::now());
            design_s[d] += secondsBetween(t0, stamps.back());
            ++design_runs[d];
            for (std::size_t i = kWarmup, k = 0;
                 rounds < kTimedRounds &&
                 i + kRecordsPerRequest < stamps.size();
                 i += kRecordsPerRequest, ++k) {
                const double us =
                    microsBetween(stamps[i], stamps[i + kRecordsPerRequest]);
                if (k == fastest_us[d].size())
                    fastest_us[d].push_back(us);
                else
                    fastest_us[d][k] = std::min(fastest_us[d][k], us);
            }

            const Exact got{res.core.cycles, res.accessOrams,
                            dramBursts(res.metrics)};
            r.attempted += kMeasure;
            ops += kMeasure;
            if (stamps.size() != kRecords + 1) {
                r.failed += kMeasure;
                r.notes.push_back(std::string(kDesigns[d].key) +
                                  ": the simulator pulled an unexpected "
                                  "number of records");
            } else if (rounds == 0) {
                first[d] = got;
            } else if (!(got == first[d])) {
                r.failed += kMeasure;
                r.notes.push_back(std::string(kDesigns[d].key) +
                                  ": simulated statistics differ from "
                                  "round 0 (determinism mismatch)");
            }
        }
        round_s[traced ? 1 : 0] += secondsBetween(r0, Clock::now());
        ++rounds_by_parity[traced ? 1 : 0];
        if (++rounds == 2)
            peak_mb = peakRssMb();
    }
    const double measured_s = secondsBetween(start, Clock::now());
    rotator.reset(); // probes run unpinned

    const double fc_cycles = static_cast<double>(first[0].cycles);
    const double norm_indep2 = first[1].cycles / fc_cycles;
    const double norm_split2 = first[2].cycles / fc_cycles;
    if (!(norm_indep2 < 1.0 && norm_split2 < 1.0)) {
        r.checksFailed = true;
        r.notes.push_back("normalized time of INDEP-2 or SPLIT-2 is not "
                          "below Freecursive's");
    }
    r.notes.push_back("sim_fig8: " + std::to_string(rounds) +
                      " rounds of 3 designs x " + std::to_string(kRecords) +
                      " records in " + std::to_string(measured_s) +
                      " s; normalized time INDEP-2 " +
                      std::to_string(norm_indep2) + ", SPLIT-2 " +
                      std::to_string(norm_split2));

    if (!cfg.trace) {
        std::vector<double> us;
        double total_us = 0.0;
        for (const auto &design_us : fastest_us) {
            us.insert(us.end(), design_us.begin(), design_us.end());
            for (double x : design_us)
                total_us += x;
        }
        r.add("ops_per_s",
              static_cast<double>(us.size() * kRecordsPerRequest) /
                  (total_us * 1e-6),
              "1/s");
        r.add("req_p50_us", quantile(us, 0.50), "us");
        r.add("req_p90_us", quantile(us, 0.90), "us");
        r.notes.push_back(std::to_string(us.size()) +
                          " requests, each timed at its fastest of " +
                          std::to_string(rounds) + " repeats");
        r.add("setup_s", median(setup_s), "s");
        r.add("peak_rss_mb", peak_mb, "MiB");
        return r;
    }

    // ---- per-layer metrics (traced run) ----------------------------
    double sim_s = 0.0;
    std::uint64_t bursts = 0, access_orams = 0;
    for (std::size_t d = 0; d < kDesigns.size(); ++d) {
        r.add(std::string("sim.records_per_s.") + kDesigns[d].key,
              static_cast<double>(kMeasure * design_runs[d]) / design_s[d],
              "1/s");
        r.add(std::string("sim.cycles.") + kDesigns[d].key,
              static_cast<double>(first[d].cycles), "cycles");
        sim_s += design_s[d];
        bursts += first[d].bursts * design_runs[d];
        access_orams += first[d].accessOrams;
    }
    r.add("sim.norm_time.indep2", norm_indep2, "ratio");
    r.add("sim.norm_time.split2", norm_split2, "ratio");
    r.add("dram.bursts_per_s", static_cast<double>(bursts) / sim_s, "1/s");
    std::uint64_t first_bursts = 0;
    for (const Exact &e : first)
        first_bursts += e.bursts;
    const double measured_records =
        static_cast<double>(kMeasure * kDesigns.size());
    r.add("dram.bursts_per_record",
          static_cast<double>(first_bursts) / measured_records, "bursts");
    r.add("sim.access_orams_per_record",
          static_cast<double>(access_orams) / measured_records, "accesses");
    r.add("mem.rss_growth_b_per_access",
          (currentRssBytes() - rss_start - spans.bytes()) /
              static_cast<double>(ops),
          "B");

    // Probe: the same records on the non-secure design, so only the
    // trace generator, LLC and core model remain.
    std::vector<double> us_per_record;
    const auto ns_config = secdimm::core::makeConfig(DesignPoint::NonSecure,
                                                     24, 7);
    for (int i = 0; i < kTraceProbeRuns; ++i) {
        ScopedSpan s(spans, kProbeTraceBase + i, -1,
                     "core.runWorkload.nonsecure");
        const auto t0 = Clock::now();
        (void)secdimm::core::runWorkload(ns_config, *profile, lengths,
                                         cfg.seed);
        us_per_record.push_back(microsBetween(t0, Clock::now()) / kRecords);
    }
    r.add("trace.us_per_record", median(us_per_record), "us");

    const double untraced = rounds_by_parity[0] / round_s[0];
    const double traced = rounds_by_parity[1] / round_s[1];
    r.add("tracing.overhead_ops_per_s",
          static_cast<double>(kMeasure * kDesigns.size()) *
              (traced - untraced),
          "1/s");
    return r;
}

} // namespace perfbench

#include "verify/leak_meter.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "crypto/aes128.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_oram.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace secdimm::verify
{

namespace
{

/**
 * Dense-remap a symbol stream to 0..alphabet-1, range-binning down
 * when more than @p max_symbols distinct values occur (keeps the
 * joint table, and therefore the plug-in bias, bounded).
 */
std::vector<unsigned>
canonicalize(const std::vector<unsigned> &v, std::size_t max_symbols,
             std::size_t &alphabet)
{
    std::map<unsigned, unsigned> ids;
    for (unsigned s : v)
        ids.emplace(s, 0);
    std::vector<unsigned> out(v.size());
    if (ids.size() <= max_symbols) {
        unsigned next = 0;
        for (auto &[sym, id] : ids)
            id = next++;
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = ids[v[i]];
        alphabet = ids.size();
        return out;
    }
    const double lo = ids.begin()->first;
    const double hi = ids.rbegin()->first;
    const double span = hi - lo;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const auto b = static_cast<std::size_t>(
            (static_cast<double>(v[i]) - lo) / span *
            static_cast<double>(max_symbols));
        out[i] = static_cast<unsigned>(std::min(b, max_symbols - 1));
    }
    alphabet = max_symbols;
    return out;
}

/** Plug-in MI (bits) of two canonicalized streams. */
double
plugInMi(const std::vector<unsigned> &x, const std::vector<unsigned> &y,
         std::size_t ax, std::size_t ay)
{
    const std::size_t n = x.size();
    if (n == 0 || ax < 2 || ay < 2)
        return 0.0;
    std::vector<double> joint(ax * ay, 0.0);
    std::vector<double> px(ax, 0.0);
    std::vector<double> py(ay, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        joint[x[i] * ay + y[i]] += 1.0;
        px[x[i]] += 1.0;
        py[y[i]] += 1.0;
    }
    const double dn = static_cast<double>(n);
    double mi = 0.0;
    for (std::size_t a = 0; a < ax; ++a) {
        for (std::size_t b = 0; b < ay; ++b) {
            const double j = joint[a * ay + b];
            if (j == 0.0)
                continue;
            mi += j / dn * std::log2(j * dn / (px[a] * py[b]));
        }
    }
    return std::max(mi, 0.0);
}

/** Mean MI over @p shuffles seeded re-pairings (dependence killed). */
double
shuffledBias(std::vector<unsigned> x, const std::vector<unsigned> &y,
             std::size_t ax, std::size_t ay, unsigned shuffles,
             Rng &rng)
{
    if (shuffles == 0)
        return 0.0;
    double total = 0.0;
    for (unsigned s = 0; s < shuffles; ++s) {
        for (std::size_t i = x.size() - 1; i > 0; --i) {
            const std::size_t j =
                static_cast<std::size_t>(rng.nextBelow(i + 1));
            std::swap(x[i], x[j]);
        }
        total += plugInMi(x, y, ax, ay);
    }
    return total / shuffles;
}

} // namespace

std::string
MiEstimate::summary() const
{
    std::ostringstream os;
    os << bitsPerAccess << " bits/access (raw=" << rawBits
       << " bias=" << biasBits << " ci95=[" << ciLow << ", " << ciHigh
       << "] n=" << samples << ") "
       << (leakDetected() ? "LEAK" : "no measurable leak");
    return os.str();
}

MiEstimate
estimateMutualInformation(const std::vector<unsigned> &x,
                          const std::vector<unsigned> &y,
                          const MiOptions &opts)
{
    SD_ASSERT(x.size() == y.size());
    SD_ASSERT(!x.empty());
    SD_ASSERT(opts.maxSymbols >= 2);

    MiEstimate est;
    est.samples = x.size();

    std::size_t ax = 0;
    std::size_t ay = 0;
    const std::vector<unsigned> cx = canonicalize(x, opts.maxSymbols, ax);
    const std::vector<unsigned> cy = canonicalize(y, opts.maxSymbols, ay);

    Rng rng(opts.seed);
    est.rawBits = plugInMi(cx, cy, ax, ay);
    est.biasBits = shuffledBias(cx, cy, ax, ay, opts.shuffles, rng);
    est.bitsPerAccess = std::max(0.0, est.rawBits - est.biasBits);

    // Bootstrap CI of the bias-corrected estimate: resample pairs
    // with replacement, correct each replicate with its own (cheaper)
    // shuffle bias.  The interval is the replicate SPREAD re-centered
    // on the full-sample estimate (basic bootstrap): resampling
    // duplicates pairs, which manufactures a little genuine dependence
    // in every replicate, and a plain percentile interval would
    // inherit that uniform upward shift -- enough to push ciLow above
    // zero on independent data.
    const std::size_t n = cx.size();
    std::vector<double> reps;
    reps.reserve(opts.bootstrap);
    std::vector<unsigned> bx(n);
    std::vector<unsigned> by(n);
    for (unsigned r = 0; r < opts.bootstrap; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j =
                static_cast<std::size_t>(rng.nextBelow(n));
            bx[i] = cx[j];
            by[i] = cy[j];
        }
        const double raw = plugInMi(bx, by, ax, ay);
        const double bias = shuffledBias(
            bx, by, ax, ay, opts.shufflesPerReplicate, rng);
        reps.push_back(raw - bias);
    }
    if (reps.empty()) {
        est.ciLow = est.ciHigh = est.bitsPerAccess;
        return est;
    }
    double rep_mean = 0.0;
    for (double r : reps)
        rep_mean += r;
    rep_mean /= static_cast<double>(reps.size());
    std::sort(reps.begin(), reps.end());
    const auto lo_idx = static_cast<std::size_t>(
        0.025 * static_cast<double>(reps.size()));
    const auto hi_idx = std::min(
        reps.size() - 1, static_cast<std::size_t>(
                             0.975 * static_cast<double>(reps.size())));
    const double point = est.rawBits - est.biasBits;
    est.ciLow = point + (reps[lo_idx] - rep_mean);
    est.ciHigh = point + (reps[hi_idx] - rep_mean);
    return est;
}

/* ------------------------------------------------------------------ */
/* PLB locality experiment                                             */
/* ------------------------------------------------------------------ */

const char *
leakDesignName(LeakDesign design)
{
    switch (design) {
      case LeakDesign::PathOram:
        return "PathOram";
      case LeakDesign::Freecursive:
        return "Freecursive";
    }
    return "?";
}

std::string
LeakReport::summary() const
{
    std::ostringstream os;
    os << design << ": " << mi.summary() << " visible/req local="
       << meanVisibleLocal << " scatter=" << meanVisibleScatter;
    return os.str();
}

std::string
LeakReport::toJson() const
{
    std::ostringstream os;
    os << "{\"design\": " << util::jsonQuote(design)
       << ", \"requests\": " << requests
       << ", \"mi_bits_per_access\": " << util::jsonNumber(mi.bitsPerAccess)
       << ", \"mi_raw_bits\": " << util::jsonNumber(mi.rawBits)
       << ", \"mi_bias_bits\": " << util::jsonNumber(mi.biasBits)
       << ", \"ci_low\": " << util::jsonNumber(mi.ciLow)
       << ", \"ci_high\": " << util::jsonNumber(mi.ciHigh)
       << ", \"leak_detected\": "
       << (mi.leakDetected() ? "true" : "false")
       << ", \"mean_visible_local\": "
       << util::jsonNumber(meanVisibleLocal)
       << ", \"mean_visible_scatter\": "
       << util::jsonNumber(meanVisibleScatter) << "}";
    return os.str();
}

LeakReport
measureLocalityLeakWith(const std::string &design_name,
                        std::uint64_t capacity_blocks,
                        const PlbLeakOptions &opts,
                        const std::function<void(Addr)> &access,
                        const std::function<std::uint64_t()> &visibleCount)
{
    SD_ASSERT(capacity_blocks > opts.localityWindow);
    SD_ASSERT(opts.phaseLen >= 1);

    Rng rng(opts.seed * 0x9e3779b9u + 17);
    std::vector<unsigned> phase_label;
    std::vector<unsigned> visible;
    phase_label.reserve(opts.requests);
    visible.reserve(opts.requests);

    bool scatter = false;
    Addr window_base = 0;
    double sum_local = 0.0;
    double sum_scatter = 0.0;
    std::size_t n_local = 0;
    std::size_t n_scatter = 0;

    std::uint64_t seen = visibleCount();
    for (std::size_t i = 0; i < opts.requests; ++i) {
        if (i % opts.phaseLen == 0) {
            // The secret: does this phase stay local or scatter?
            scatter = rng.nextBool(0.5);
            window_base =
                rng.nextBelow(capacity_blocks - opts.localityWindow);
        }
        const Addr addr = scatter
                              ? rng.nextBelow(capacity_blocks)
                              : window_base +
                                    rng.nextBelow(opts.localityWindow);
        access(addr);
        const std::uint64_t now = visibleCount();
        const auto delta = static_cast<unsigned>(now - seen);
        seen = now;
        phase_label.push_back(scatter ? 1u : 0u);
        visible.push_back(delta);
        if (scatter) {
            sum_scatter += delta;
            ++n_scatter;
        } else {
            sum_local += delta;
            ++n_local;
        }
    }

    LeakReport report;
    report.design = design_name;
    report.requests = opts.requests;
    report.meanVisibleLocal =
        n_local ? sum_local / static_cast<double>(n_local) : 0.0;
    report.meanVisibleScatter =
        n_scatter ? sum_scatter / static_cast<double>(n_scatter) : 0.0;
    MiOptions mi = opts.mi;
    mi.seed = mi.seed * 31 + opts.seed;
    report.mi = estimateMutualInformation(phase_label, visible, mi);
    return report;
}

LeakReport
measureObservedLocalityLeak(const std::string &design_name,
                            std::uint64_t capacity_blocks,
                            const PlbLeakOptions &opts,
                            const std::function<void(Addr)> &access,
                            const ChannelObserver &observer)
{
    std::size_t scanned = 0;
    std::uint64_t visible = 0;
    return measureLocalityLeakWith(
        design_name, capacity_blocks, opts, access, [&] {
            const std::vector<TraceEvent> &events = observer.events();
            for (; scanned < events.size(); ++scanned)
                visible += events[scanned].kind != TraceEventKind::Transfer;
            return visible;
        });
}

LeakReport
measurePlbLocalityLeak(LeakDesign design, const PlbLeakOptions &opts)
{
    oram::OramParams params;
    params.levels = opts.dataLevels;
    params.stashCapacity = 200;

    ChannelObserver obs;
    switch (design) {
      case LeakDesign::PathOram: {
        oram::PathOram o(params, crypto::makeKey(0x1ea4, opts.seed),
                         crypto::makeKey(0xbeef, opts.seed * 3 + 1),
                         opts.seed);
        obs.attach(o);
        return measureObservedLocalityLeak(
            leakDesignName(design), o.params().capacityBlocks(), opts,
            [&](Addr a) { o.access(a, oram::OramOp::Read, nullptr); }, obs);
      }
      case LeakDesign::Freecursive: {
        oram::RecursiveOram::Params rp;
        rp.data = params;
        rp.plbEntries = opts.plbEntries;
        oram::RecursiveOram o(rp, opts.seed);
        obs.attach(o);
        return measureObservedLocalityLeak(
            leakDesignName(design), o.capacityBlocks(), opts,
            [&](Addr a) { o.access(a, oram::OramOp::Read, nullptr); }, obs);
      }
    }
    panic("measurePlbLocalityLeak: unknown design");
}

/* ------------------------------------------------------------------ */
/* Deliberately-leaky positive controls                                */
/* ------------------------------------------------------------------ */

std::vector<TraceEvent>
injectOrderingLeak(std::vector<TraceEvent> events, std::size_t window)
{
    SD_ASSERT(window >= 2);
    struct Payload
    {
        TraceEventKind kind;
        std::uint64_t addr;
    };
    std::vector<Payload> buf;
    for (std::size_t w = 0; w < events.size(); w += window) {
        const std::size_t end = std::min(w + window, events.size());
        buf.clear();
        for (std::size_t i = w; i < end; ++i)
            buf.push_back(Payload{events[i].kind, events[i].addr});
        std::sort(buf.begin(), buf.end(),
                  [](const Payload &p, const Payload &q) {
                      if (p.addr != q.addr)
                          return p.addr < q.addr;
                      return static_cast<int>(p.kind) <
                             static_cast<int>(q.kind);
                  });
        for (std::size_t i = w; i < end; ++i) {
            events[i].kind = buf[i - w].kind;
            events[i].addr = buf[i - w].addr;
            // events[i].at stays: the slots keep their timestamps.
        }
    }
    return events;
}

std::vector<TraceEvent>
injectTimingLeak(std::vector<TraceEvent> events, std::uint64_t hot_lo,
                 std::uint64_t hot_hi, Tick extra_ticks)
{
    Tick carry = 0;
    for (TraceEvent &e : events) {
        e.at += carry;
        if (e.addr >= hot_lo && e.addr < hot_hi)
            carry += extra_ticks; // Slows everything downstream.
    }
    return events;
}

/* ------------------------------------------------------------------ */
/* The serve frontend's schedule                                       */
/* ------------------------------------------------------------------ */

std::vector<TraceEvent>
scheduleToTrace(const std::vector<ScheduleEvent> &schedule)
{
    std::vector<TraceEvent> t;
    t.reserve(schedule.size());
    for (const ScheduleEvent &e : schedule) {
        t.push_back(TraceEvent{e.write ? TraceEventKind::Write
                                       : TraceEventKind::Read,
                               e.shard, e.seq});
    }
    return t;
}

/* ------------------------------------------------------------------ */
/* The calibrated run-level gate                                       */
/* ------------------------------------------------------------------ */

static_assert(calibratedDraws >= 2, "a half needs two runs to relabel");

namespace
{

const char *const shardStatNames[] = {"addr_tv",  "kind_tv",
                                      "count_delta", "acf_addr",
                                      "acf_gap",  "gap_profile"};
const char *const scheduleStatNames[] = {"occupancy_tv", "kind_tv",
                                         "count_delta", "acf",
                                         "shard_kind_acf"};

/** ACF profiles of a schedule's per-shard 0/1 write-indicator
 *  subsequences, with the subsequence lengths. */
struct KindProfiles
{
    std::vector<std::vector<double>> acf;
    std::vector<std::size_t> len;
};

KindProfiles
kindProfiles(const std::vector<ScheduleEvent> &schedule, unsigned shards)
{
    std::vector<std::vector<double>> series(shards);
    for (const ScheduleEvent &e : schedule) {
        if (e.shard < shards)
            series[e.shard].push_back(e.write ? 1.0 : 0.0);
    }
    KindProfiles p;
    for (const std::vector<double> &s : series) {
        p.acf.push_back(acfProfile(s));
        p.len.push_back(s.size());
    }
    return p;
}

/** Shard @p s's trace of @p o; empty where the run observed none. */
const std::vector<TraceEvent> &
shardTrace(const Observation &o, std::size_t s)
{
    static const std::vector<TraceEvent> none;
    return s < o.shardTraces.size() ? o.shardTraces[s] : none;
}

/**
 * What the pair statistics need of one run, computed once instead of
 * for every pair the run is in: its ACF profiles.
 */
struct RunProfile
{
    std::vector<std::vector<double>> addrAcf; ///< Per shard.
    std::vector<std::vector<double>> gapAcf;  ///< Per shard.
    std::vector<TraceEvent> schedule;         ///< scheduleToTrace.
    std::vector<double> scheduleAcf;
    KindProfiles kinds;
};

RunProfile
profileRun(const Observation &o, std::size_t shards)
{
    RunProfile p;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::vector<TraceEvent> &t = shardTrace(o, s);
        p.addrAcf.push_back(acfProfile(addressSeries(t)));
        p.gapAcf.push_back(acfProfile(gapSeries(t)));
    }
    p.schedule = scheduleToTrace(o.schedule);
    p.scheduleAcf = acfProfile(addressSeries(p.schedule));
    unsigned sched_shards = 0;
    for (const ScheduleEvent &e : o.schedule)
        sched_shards = std::max(sched_shards, e.shard + 1);
    p.kinds = kindProfiles(o.schedule, sched_shards);
    return p;
}

/** Write the statistics of one pair of runs to @p out. */
void
pairStatistics(const Observation &a, const Observation &b,
               const RunProfile &pa, const RunProfile &pb,
               std::size_t shards, bool schedule, double *out)
{
    for (std::size_t s = 0; s < shards; ++s) {
        const std::vector<TraceEvent> &ta = shardTrace(a, s);
        const std::vector<TraceEvent> &tb = shardTrace(b, s);
        const TraceComparison c = compareTraces(ta, tb);
        *out++ = c.addressDistance;
        *out++ = c.kindDistance;
        *out++ = c.countRatioDelta;
        *out++ = maxAcfDelta(pa.addrAcf[s], pb.addrAcf[s]);
        *out++ = maxAcfDelta(pa.gapAcf[s], pb.gapAcf[s]);
        *out++ = compareGapProfiles(ta, tb).maxDelta;
    }
    if (!schedule)
        return;
    const TraceComparison c = compareTraces(pa.schedule, pb.schedule);
    *out++ = c.addressDistance;
    *out++ = c.kindDistance;
    *out++ = c.countRatioDelta;
    *out++ = maxAcfDelta(pa.scheduleAcf, pb.scheduleAcf);
    // Shards either run served fewer than twice carry no order.
    double kind = 0.0;
    const std::size_t kind_shards =
        std::min(pa.kinds.len.size(), pb.kinds.len.size());
    for (std::size_t s = 0; s < kind_shards; ++s) {
        if (pa.kinds.len[s] >= 2 && pb.kinds.len[s] >= 2)
            kind = std::max(
                kind, maxAcfDelta(pa.kinds.acf[s], pb.kinds.acf[s]));
    }
    *out = kind;
}

/**
 * Exact permutation p-values.  d holds, for every ordered pair of
 * the n runs, m statistics (d[(i*n + j)*m + k], symmetric, zero
 * diagonal); runs 0, 2, 4, ... carry one secret.  T of a labelling
 * rises with its cross-half sum, so each p is the share of the
 * C(n-1, n/2-1) halves holding run 0 (the other halves mirror them)
 * whose cross sum reaches the observed one.  A statistic equal on
 * every pair cannot tell labellings apart and gets p = 1 unenumerated.
 */
class Relabeler
{
  public:
    Relabeler(const std::vector<double> &d, unsigned n, unsigned m)
        : n_(n), half_(n / 2), m_(m)
    {
        for (unsigned k = 0; k < m; ++k) {
            for (std::size_t ij = 0; ij < std::size_t(n) * n; ++ij) {
                const std::size_t i = ij / n, j = ij % n;
                // Pair (0, 1) sits at ij = 1.
                if (i != j && d[ij * m + k] != d[m + k]) {
                    active_.push_back(k);
                    break;
                }
            }
        }
        a_ = static_cast<unsigned>(active_.size());
        d_.resize(std::size_t(n) * n * a_);
        for (std::size_t ij = 0; ij < std::size_t(n) * n; ++ij) {
            for (unsigned q = 0; q < a_; ++q)
                d_[ij * a_ + q] = d[ij * m + active_[q]];
        }
        rowTotal_.assign(std::size_t(n) * a_, 0.0);
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                for (unsigned q = 0; q < a_; ++q)
                    rowTotal_[i * a_ + q] += at(i, j)[q];
            }
        }
        observed_.assign(a_, 0.0);
        for (unsigned i = 0; i < n; i += 2) {
            for (unsigned j = 1; j < n; j += 2) {
                for (unsigned q = 0; q < a_; ++q)
                    observed_[q] += at(i, j)[q];
            }
        }
        // Sums reached along different paths round differently.
        tol_.assign(a_, 1e-9);
        for (unsigned q = 0; q < a_; ++q) {
            for (unsigned i = 0; i < n; ++i)
                tol_[q] += 1e-9 * std::abs(rowTotal_[i * a_ + q]);
        }
        hits_.assign(a_, 0);
    }

    /** p of every statistic (1 for the constant ones). */
    std::vector<double>
    pValues()
    {
        if (a_ > 0) {
            // Per depth: the cross sum of the half so far, and for
            // every run the sum of its pairs with the half.
            cross_.assign(std::size_t(half_) * a_, 0.0);
            inHalf_.assign(std::size_t(half_) * n_ * a_, 0.0);
            std::copy(&rowTotal_[0], &rowTotal_[a_], &cross_[0]);
            for (unsigned f = 0; f < n_; ++f)
                std::copy(at(f, 0), at(f, 0) + a_, &inHalf_[f * a_]);
            visit(1, 1);
        }
        std::vector<double> p(m_, 1.0);
        for (unsigned q = 0; q < a_; ++q)
            p[active_[q]] = static_cast<double>(hits_[q]) /
                            static_cast<double>(total_);
        return p;
    }

  private:
    const double *
    at(unsigned i, unsigned j) const
    {
        return &d_[(std::size_t(i) * n_ + j) * a_];
    }

    /** Extend a half of @p depth runs with every run from @p start. */
    void
    visit(unsigned start, unsigned depth)
    {
        const double *c = &cross_[std::size_t(depth - 1) * a_];
        const double *in = &inHalf_[std::size_t(depth - 1) * n_ * a_];
        // Adding e: its pairs with runs outside become cross pairs,
        // its pairs with the half stop being ones.
        if (depth + 1 == half_) {
            for (unsigned e = start; e < n_; ++e) {
                ++total_;
                for (unsigned q = 0; q < a_; ++q) {
                    const double x = c[q] + rowTotal_[e * a_ + q] -
                                     2.0 * in[e * a_ + q];
                    if (x >= observed_[q] - tol_[q])
                        ++hits_[q];
                }
            }
            return;
        }
        double *nc = &cross_[std::size_t(depth) * a_];
        double *nin = &inHalf_[std::size_t(depth) * n_ * a_];
        for (unsigned e = start; e + (half_ - depth) <= n_; ++e) {
            for (unsigned q = 0; q < a_; ++q)
                nc[q] = c[q] + rowTotal_[e * a_ + q] - 2.0 * in[e * a_ + q];
            for (unsigned f = e + 1; f < n_; ++f) {
                const double *df = at(f, e);
                for (unsigned q = 0; q < a_; ++q)
                    nin[f * a_ + q] = in[f * a_ + q] + df[q];
            }
            visit(e + 1, depth + 1);
        }
    }

    unsigned n_, half_, m_;
    std::vector<unsigned> active_;
    unsigned a_ = 0;
    std::vector<double> d_;
    std::vector<double> rowTotal_;
    std::vector<double> observed_;
    std::vector<double> tol_;
    std::vector<double> cross_;
    std::vector<double> inHalf_;
    std::vector<std::uint64_t> hits_;
    std::uint64_t total_ = 0;
};

} // namespace

bool
CalibratedComparison::passes(const std::string &prefix) const
{
    for (const CalibratedStatistic &s : statistics) {
        if (s.name.compare(0, prefix.size(), prefix) == 0 &&
            s.pValue <= threshold)
            return false;
    }
    return true;
}

std::string
CalibratedComparison::summary() const
{
    std::ostringstream os;
    os << (pass ? "CALIBRATED-PASS" : "CALIBRATED-FAIL")
       << " R=" << calibratedDraws << " alpha=" << calibratedAlpha
       << " m=" << statistics.size()
       << " threshold=" << threshold << " floor=" << pFloor;
    if (!statistics.empty()) {
        const CalibratedStatistic &w = statistics[worst];
        os << " worst=" << w.name << " p=" << w.pValue
           << " T=" << w.effect;
    }
    for (const CalibratedStatistic &s : statistics) {
        if (s.pValue <= threshold)
            os << " [" << s.name << " p=" << s.pValue << " T=" << s.effect
               << "]";
    }
    return os.str();
}

CalibratedComparison
compareCalibrated(const ObservationRun &run)
{
    const unsigned r = calibratedDraws;
    const unsigned n = 2 * r;
    std::vector<Observation> runs;
    runs.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        runs.push_back(run(i % 2, i));

    std::size_t shards = 0;
    bool schedule = false;
    for (const Observation &o : runs) {
        shards = std::max(shards, o.shardTraces.size());
        schedule = schedule || !o.schedule.empty();
    }

    CalibratedComparison cmp;
    for (std::size_t s = 0; s < shards; ++s) {
        for (const char *stat : shardStatNames)
            cmp.statistics.push_back(
                {"shard" + std::to_string(s) + "." + stat, 0.0, 1.0});
    }
    if (schedule) {
        for (const char *stat : scheduleStatNames)
            cmp.statistics.push_back(
                {std::string("schedule.") + stat, 0.0, 1.0});
    }
    const unsigned m = static_cast<unsigned>(cmp.statistics.size());
    SD_ASSERT(m > 0);

    std::vector<RunProfile> profiles;
    for (const Observation &o : runs)
        profiles.push_back(profileRun(o, shards));
    std::vector<double> d(static_cast<std::size_t>(n) * n * m, 0.0);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = i + 1; j < n; ++j) {
            double *ij = &d[(static_cast<std::size_t>(i) * n + j) * m];
            pairStatistics(runs[i], runs[j], profiles[i], profiles[j],
                           shards, schedule, ij);
            std::copy(ij, ij + m,
                      &d[(static_cast<std::size_t>(j) * n + i) * m]);
        }
    }

    const std::vector<double> p = Relabeler(d, n, m).pValues();
    double halves = 1.0; // C(2R, R) / 2 = C(2R-1, R-1).
    for (unsigned k = 1; k < r; ++k)
        halves = halves * (n - k) / k;
    cmp.pFloor = 1.0 / halves;
    cmp.threshold = calibratedAlpha / m;
    // A floor above the threshold would make the gate unable to fail.
    SD_ASSERT(cmp.pFloor < cmp.threshold);

    cmp.pass = true;
    for (unsigned k = 0; k < m; ++k) {
        double cross = 0.0, same = 0.0;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = i + 1; j < n; ++j)
                ((i + j) % 2 ? cross : same) +=
                    d[(static_cast<std::size_t>(i) * n + j) * m + k];
        }
        CalibratedStatistic &s = cmp.statistics[k];
        s.effect = cross / (double(r) * r) - same / (double(r) * (r - 1));
        s.pValue = p[k];
        if (s.pValue < cmp.statistics[cmp.worst].pValue)
            cmp.worst = k;
        cmp.pass = cmp.pass && s.pValue > cmp.threshold;
    }
    return cmp;
}

} // namespace secdimm::verify

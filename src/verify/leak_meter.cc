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
/* Concurrency-sound checking                                          */
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

std::string
ScheduleComparison::summary() const
{
    std::ostringstream os;
    os << (pass ? "SCHEDULE-PASS" : "SCHEDULE-FAIL") << " ["
       << marginal.summary() << "] [" << ordering.summary()
       << "] [SHARD-KIND-" << (perShardPass ? "PASS" : "FAIL")
       << ": max_delta=" << maxPerShardKindDelta << "@shard"
       << worstShard << " band=" << perShardBand << "]";
    return os.str();
}

namespace
{

/** Per-shard 0/1 write-indicator subsequences of a schedule. */
std::vector<std::vector<double>>
perShardKindSeries(const std::vector<ScheduleEvent> &schedule,
                   unsigned shards)
{
    std::vector<std::vector<double>> series(shards);
    for (const ScheduleEvent &e : schedule) {
        if (e.shard < shards)
            series[e.shard].push_back(e.write ? 1.0 : 0.0);
    }
    return series;
}

} // namespace

ScheduleComparison
compareSchedules(const std::vector<ScheduleEvent> &a,
                 const std::vector<ScheduleEvent> &b,
                 const DeepCheckOptions &opts)
{
    ScheduleComparison cmp;
    const std::vector<TraceEvent> ta = scheduleToTrace(a);
    const std::vector<TraceEvent> tb = scheduleToTrace(b);
    cmp.marginal = compareTraces(ta, tb, opts.marginal);
    cmp.ordering = compareAutocorrelation(ta, tb, opts.timing);

    // Shard-local ordering: compare the ACF profile of each shard's
    // FIFO-order write-indicator sequence between the two runs.
    unsigned shards = 0;
    for (const ScheduleEvent &e : a)
        shards = std::max(shards, e.shard + 1);
    for (const ScheduleEvent &e : b)
        shards = std::max(shards, e.shard + 1);
    const auto sa = perShardKindSeries(a, shards);
    const auto sb = perShardKindSeries(b, shards);
    cmp.perShardPass = true;
    for (unsigned s = 0; s < shards; ++s) {
        const std::size_t na = sa[s].size();
        const std::size_t nb = sb[s].size();
        if (na < 2 || nb < 2)
            continue; // The marginal check owns occupancy mismatches.
        const double band =
            std::max(opts.timing.acfBandFloor,
                     opts.timing.acfBandScale *
                         std::sqrt(1.0 / static_cast<double>(na) +
                                   1.0 / static_cast<double>(nb)));
        for (unsigned lag = 1; lag <= opts.timing.maxLag; ++lag) {
            const double delta =
                std::abs(lagAutocorrelation(sa[s], lag) -
                         lagAutocorrelation(sb[s], lag));
            if (delta > cmp.maxPerShardKindDelta) {
                cmp.maxPerShardKindDelta = delta;
                cmp.worstShard = s;
                cmp.perShardBand = band;
            }
            if (delta > band)
                cmp.perShardPass = false;
        }
        if (cmp.perShardBand == 0.0)
            cmp.perShardBand = band;
    }
    cmp.pass = cmp.marginal.indistinguishable && cmp.ordering.pass &&
               cmp.perShardPass;
    return cmp;
}

} // namespace secdimm::verify

#include "verify/trace_stats.hh"

#include <algorithm>
#include <cmath>

#include "trace/memory_backend.hh"
#include "util/logging.hh"

namespace secdimm::verify
{

namespace
{

constexpr std::size_t numKinds = 7;

/** Total-variation distance between two empirical distributions. */
double
totalVariation(const std::vector<double> &p, const std::vector<double> &q)
{
    double d = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i)
        d += std::abs(p[i] - q[i]);
    return d / 2.0;
}

/** Smallest and largest address of the pair, as doubles. */
std::pair<double, double>
addressRange(const std::vector<TraceEvent> &a,
             const std::vector<TraceEvent> &b)
{
    double lo = static_cast<double>(a.empty() ? b[0].addr : a[0].addr);
    double hi = lo;
    for (const auto *t : {&a, &b}) {
        for (const TraceEvent &e : *t) {
            lo = std::min(lo, static_cast<double>(e.addr));
            hi = std::max(hi, static_cast<double>(e.addr));
        }
    }
    return {lo, hi};
}

/** Bin of @p addr among @p bins over [lo, lo + span]. */
std::size_t
binOf(std::uint64_t addr, double lo, double span, std::size_t bins)
{
    if (span <= 0.0)
        return 0;
    const auto b = static_cast<std::size_t>(
        (static_cast<double>(addr) - lo) / span * static_cast<double>(bins));
    return std::min(b, bins - 1);
}

std::vector<double>
addressHistogram(const std::vector<TraceEvent> &events, double lo,
                 double span)
{
    std::vector<double> h(addressBins, 0.0);
    for (const TraceEvent &e : events)
        h[binOf(e.addr, lo, span + 1.0, addressBins)] += 1.0;
    for (double &v : h)
        v /= static_cast<double>(events.size());
    return h;
}

std::vector<double>
kindHistogram(const std::vector<TraceEvent> &events)
{
    std::vector<double> h(numKinds, 0.0);
    for (const TraceEvent &e : events)
        h[static_cast<std::size_t>(e.kind)] += 1.0;
    for (double &v : h)
        v /= static_cast<double>(events.size());
    return h;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Per-bin gap sums/counts of one trace over a shared address range. */
struct BinnedGaps
{
    std::vector<double> sum;
    std::vector<double> cnt;
    double grandMean = 0.0;
};

BinnedGaps
binGaps(const std::vector<TraceEvent> &events, double lo, double span)
{
    BinnedGaps bg;
    bg.sum.assign(gapProfileBins, 0.0);
    bg.cnt.assign(gapProfileBins, 0.0);
    const std::vector<double> gaps = gapSeries(events);
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        // gaps[i] is the gap AFTER event i; label it with event i's bin.
        const std::size_t b =
            binOf(events[i].addr, lo, span, gapProfileBins);
        bg.sum[b] += gaps[i];
        bg.cnt[b] += 1.0;
    }
    bg.grandMean = mean(gaps);
    return bg;
}

} // namespace

TraceComparison
compareTraces(const std::vector<TraceEvent> &a,
              const std::vector<TraceEvent> &b)
{
    TraceComparison cmp;
    // An empty pair is vacuously alike; one-sided emptiness is the
    // strongest possible difference.
    if (a.empty() || b.empty()) {
        const double d = (a.empty() && b.empty()) ? 0.0 : 1.0;
        return TraceComparison{d, d, d};
    }
    const auto [lo, hi] = addressRange(a, b);
    cmp.addressDistance = totalVariation(addressHistogram(a, lo, hi - lo),
                                         addressHistogram(b, lo, hi - lo));
    cmp.kindDistance = totalVariation(kindHistogram(a), kindHistogram(b));
    const double na = static_cast<double>(a.size());
    const double nb = static_cast<double>(b.size());
    cmp.countRatioDelta = std::abs(na - nb) / std::max(na, nb);
    return cmp;
}

std::vector<double>
addressSeries(const std::vector<TraceEvent> &events)
{
    std::vector<double> s;
    s.reserve(events.size());
    for (const TraceEvent &e : events)
        s.push_back(static_cast<double>(e.addr));
    return s;
}

std::vector<double>
gapSeries(const std::vector<TraceEvent> &events)
{
    std::vector<double> g;
    if (events.size() < 2)
        return g;
    g.reserve(events.size() - 1);
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
        // Ticks are monotone per channel but merged multi-channel
        // traces may interleave; clamp at 0 so a reordering cannot
        // masquerade as a negative gap.
        const double d = events[i + 1].at >= events[i].at
                             ? static_cast<double>(events[i + 1].at -
                                                   events[i].at)
                             : 0.0;
        g.push_back(d);
    }
    return g;
}

double
lagAutocorrelation(const std::vector<double> &series, unsigned lag)
{
    if (lag == 0 || series.size() < lag + 2)
        return 0.0;
    const double m = mean(series);
    double var = 0.0;
    for (double x : series)
        var += (x - m) * (x - m);
    var /= static_cast<double>(series.size());
    if (var <= 1e-12)
        return 0.0; // Constant series: no ordering information.
    double s = 0.0;
    for (std::size_t i = 0; i + lag < series.size(); ++i)
        s += (series[i] - m) * (series[i + lag] - m);
    return s / (static_cast<double>(series.size()) * var);
}

std::vector<double>
acfProfile(const std::vector<double> &series, unsigned max_lag)
{
    std::vector<double> p(max_lag);
    for (unsigned k = 1; k <= max_lag; ++k)
        p[k - 1] = lagAutocorrelation(series, k);
    return p;
}

double
maxAcfDelta(const std::vector<double> &a, const std::vector<double> &b)
{
    SD_ASSERT(a.size() == b.size());
    double m = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        m = std::max(m, std::abs(a[k] - b[k]));
    return m;
}

GapProfileComparison
compareGapProfiles(const std::vector<TraceEvent> &a,
                   const std::vector<TraceEvent> &b)
{
    GapProfileComparison cmp;
    if (a.size() < 2 || b.size() < 2) {
        cmp.degenerate = true;
        cmp.maxDelta = a.size() == b.size() ? 0.0 : 1.0;
        return cmp;
    }

    const auto [lo, hi] = addressRange(a, b);
    const BinnedGaps ga = binGaps(a, lo, hi - lo);
    const BinnedGaps gb = binGaps(b, lo, hi - lo);
    const bool ticks_a = ga.grandMean > 1e-12;
    const bool ticks_b = gb.grandMean > 1e-12;
    if (!ticks_a && !ticks_b) {
        cmp.degenerate = true;
        return cmp;
    }
    // One trace ticking while the other does not is itself a leak.
    if (ticks_a != ticks_b) {
        cmp.maxDelta = 1.0;
        return cmp;
    }

    const double min_n = static_cast<double>(minBinSamples);
    for (std::size_t i = 0; i < gapProfileBins; ++i) {
        if (ga.cnt[i] < min_n || gb.cnt[i] < min_n)
            continue;
        ++cmp.binsCompared;
        const double pa = ga.sum[i] / ga.cnt[i] / ga.grandMean;
        const double pb = gb.sum[i] / gb.cnt[i] / gb.grandMean;
        cmp.maxDelta = std::max(cmp.maxDelta, std::abs(pa - pb));
    }
    return cmp;
}

Tick
driveBackend(MemoryBackend &backend,
             const std::vector<std::pair<Addr, bool>> &accesses)
{
    Tick now = 0;
    std::uint64_t id = 0;
    for (const auto &[addr, write] : accesses) {
        while (!backend.canAccept()) {
            const Tick next = backend.nextEventAt();
            SD_ASSERT(next != tickNever);
            backend.advanceTo(next);
            now = std::max(now, next);
        }
        backend.access(++id, addr, write, now);
    }
    while (!backend.idle()) {
        const Tick next = backend.nextEventAt();
        SD_ASSERT(next != tickNever);
        backend.advanceTo(next);
        now = std::max(now, next);
    }
    return now;
}

} // namespace secdimm::verify

#include "verify/timing_stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/rng.hh"

namespace secdimm::verify
{

namespace
{

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

double
variance(const std::vector<double> &v, double m)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += (x - m) * (x - m);
    return s / static_cast<double>(v.size());
}

/** Bin an address into [0, bins) over the series' own range. */
std::vector<std::size_t>
binLabels(const std::vector<double> &addrs, std::size_t bins)
{
    std::vector<std::size_t> labels(addrs.size(), 0);
    if (addrs.empty())
        return labels;
    double lo = addrs[0];
    double hi = addrs[0];
    for (double a : addrs) {
        lo = std::min(lo, a);
        hi = std::max(hi, a);
    }
    const double span = hi - lo;
    if (span <= 0.0)
        return labels; // Single bin: statistic will be 0.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        const auto b = static_cast<std::size_t>((addrs[i] - lo) / span *
                                                static_cast<double>(bins));
        labels[i] = std::min(b, bins - 1);
    }
    return labels;
}

/** Between-bin weighted variance of the mean gap (ANOVA numerator). */
double
betweenBinStat(const std::vector<double> &gaps,
               const std::vector<std::size_t> &labels, std::size_t bins)
{
    std::vector<double> sum(bins, 0.0);
    std::vector<double> cnt(bins, 0.0);
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        sum[labels[i]] += gaps[i];
        cnt[labels[i]] += 1.0;
    }
    const double grand = mean(gaps);
    double stat = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
        if (cnt[b] == 0.0)
            continue;
        const double d = sum[b] / cnt[b] - grand;
        stat += cnt[b] * d * d;
    }
    return stat / static_cast<double>(gaps.size());
}

} // namespace

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
    const double var = variance(series, m);
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

std::string
AcfComparison::summary() const
{
    std::ostringstream os;
    os << (pass ? "ACF-PASS" : "ACF-FAIL")
       << ": addr_delta=" << maxAddressDelta << "@lag" << worstAddressLag
       << " gap_delta=" << maxGapDelta << "@lag" << worstGapLag
       << " band=" << band;
    return os.str();
}

AcfComparison
compareAutocorrelation(const std::vector<TraceEvent> &a,
                       const std::vector<TraceEvent> &b,
                       const TimingCheckOptions &opts)
{
    SD_ASSERT(opts.maxLag >= 1);
    AcfComparison cmp;
    const double na = static_cast<double>(std::max<std::size_t>(
        a.size(), 2));
    const double nb = static_cast<double>(std::max<std::size_t>(
        b.size(), 2));
    cmp.band = std::max(opts.acfBandFloor,
                        opts.acfBandScale *
                            std::sqrt(1.0 / na + 1.0 / nb));

    const std::vector<double> addr_a =
        acfProfile(addressSeries(a), opts.maxLag);
    const std::vector<double> addr_b =
        acfProfile(addressSeries(b), opts.maxLag);
    const std::vector<double> gap_a = acfProfile(gapSeries(a), opts.maxLag);
    const std::vector<double> gap_b = acfProfile(gapSeries(b), opts.maxLag);

    for (unsigned k = 1; k <= opts.maxLag; ++k) {
        const double da = std::abs(addr_a[k - 1] - addr_b[k - 1]);
        if (da > cmp.maxAddressDelta) {
            cmp.maxAddressDelta = da;
            cmp.worstAddressLag = k;
        }
        const double dg = std::abs(gap_a[k - 1] - gap_b[k - 1]);
        if (dg > cmp.maxGapDelta) {
            cmp.maxGapDelta = dg;
            cmp.worstGapLag = k;
        }
    }
    cmp.pass = cmp.maxAddressDelta <= cmp.band &&
               cmp.maxGapDelta <= cmp.band;
    return cmp;
}

std::string
GapPermutationResult::summary() const
{
    std::ostringstream os;
    os << (pass ? "GAP-PASS" : "GAP-FAIL");
    if (degenerate) {
        os << " (degenerate: no timestamps)";
        return os.str();
    }
    os << ": stat=" << observedStat << " p=" << pValue << " ("
       << permutations << " permutations)";
    return os.str();
}

GapPermutationResult
gapPermutationTest(const std::vector<TraceEvent> &events,
                   const TimingCheckOptions &opts)
{
    SD_ASSERT(opts.permAddressBins >= 2);
    GapPermutationResult res;
    res.permutations = opts.permutations;

    std::vector<double> gaps = gapSeries(events);
    if (gaps.size() < 8) {
        res.degenerate = true;
        res.pass = true;
        return res;
    }
    const double gvar = variance(gaps, mean(gaps));
    if (gvar <= 1e-12) {
        // Constant (typically all-zero) gaps: nothing to leak through.
        res.degenerate = true;
        res.pass = true;
        return res;
    }

    // gaps[i] is the gap AFTER event i; label it with event i's bin.
    std::vector<double> addrs = addressSeries(events);
    addrs.pop_back();
    const std::vector<std::size_t> labels =
        binLabels(addrs, opts.permAddressBins);

    res.observedStat =
        betweenBinStat(gaps, labels, opts.permAddressBins);

    // Null distribution: shuffle the gap series against the labels.
    Rng rng(opts.seed);
    unsigned ge = 0;
    std::vector<double> perm = gaps;
    for (unsigned p = 0; p < opts.permutations; ++p) {
        for (std::size_t i = perm.size() - 1; i > 0; --i) {
            const std::size_t j =
                static_cast<std::size_t>(rng.nextBelow(i + 1));
            std::swap(perm[i], perm[j]);
        }
        if (betweenBinStat(perm, labels, opts.permAddressBins) >=
            res.observedStat)
            ++ge;
    }
    res.pValue = (1.0 + ge) / (1.0 + opts.permutations);
    res.pass = res.pValue > opts.permAlpha;
    return res;
}

namespace
{

/** Per-bin gap sums/counts of one trace over a shared address range. */
struct BinnedGaps
{
    std::vector<double> sum;
    std::vector<double> cnt;
    double grandMean = 0.0;
};

BinnedGaps
binGaps(const std::vector<TraceEvent> &events, double lo, double span,
        std::size_t bins)
{
    BinnedGaps bg;
    bg.sum.assign(bins, 0.0);
    bg.cnt.assign(bins, 0.0);
    const std::vector<double> gaps = gapSeries(events);
    double total = 0.0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        const double a = static_cast<double>(events[i].addr);
        std::size_t b = 0;
        if (span > 0.0) {
            b = std::min(static_cast<std::size_t>(
                             (a - lo) / span * static_cast<double>(bins)),
                         bins - 1);
        }
        bg.sum[b] += gaps[i];
        bg.cnt[b] += 1.0;
        total += gaps[i];
    }
    bg.grandMean =
        gaps.empty() ? 0.0 : total / static_cast<double>(gaps.size());
    return bg;
}

} // namespace

std::string
GapProfileComparison::summary() const
{
    std::ostringstream os;
    os << (pass ? "GAPPROFILE-PASS" : "GAPPROFILE-FAIL");
    if (degenerate) {
        os << " (degenerate: no timestamps)";
        return os.str();
    }
    os << ": max_delta=" << maxDelta << "@bin" << worstBin
       << " threshold=" << threshold << " bins=" << binsCompared;
    return os.str();
}

GapProfileComparison
compareGapProfiles(const std::vector<TraceEvent> &a,
                   const std::vector<TraceEvent> &b,
                   const TimingCheckOptions &opts)
{
    SD_ASSERT(opts.permAddressBins >= 2);
    GapProfileComparison cmp;
    cmp.threshold = opts.maxGapProfileDelta;

    if (a.size() < 2 || b.size() < 2) {
        cmp.degenerate = true;
        cmp.pass = a.size() == b.size();
        return cmp;
    }

    // Shared binning range (same convention as compareTraces).
    double lo = static_cast<double>(a[0].addr);
    double hi = lo;
    for (const TraceEvent &e : a) {
        lo = std::min(lo, static_cast<double>(e.addr));
        hi = std::max(hi, static_cast<double>(e.addr));
    }
    for (const TraceEvent &e : b) {
        lo = std::min(lo, static_cast<double>(e.addr));
        hi = std::max(hi, static_cast<double>(e.addr));
    }

    const std::size_t bins = opts.permAddressBins;
    const BinnedGaps ga = binGaps(a, lo, hi - lo, bins);
    const BinnedGaps gb = binGaps(b, lo, hi - lo, bins);
    if (ga.grandMean <= 1e-12 && gb.grandMean <= 1e-12) {
        cmp.degenerate = true;
        cmp.pass = true;
        return cmp;
    }
    // One trace ticking while the other does not is itself a leak.
    if (ga.grandMean <= 1e-12 || gb.grandMean <= 1e-12) {
        cmp.maxDelta = 1.0;
        cmp.pass = false;
        return cmp;
    }

    const double min_n = static_cast<double>(opts.minBinSamples);
    for (std::size_t i = 0; i < bins; ++i) {
        if (ga.cnt[i] < min_n || gb.cnt[i] < min_n)
            continue;
        ++cmp.binsCompared;
        const double pa = ga.sum[i] / ga.cnt[i] / ga.grandMean;
        const double pb = gb.sum[i] / gb.cnt[i] / gb.grandMean;
        const double d = std::abs(pa - pb);
        if (d > cmp.maxDelta) {
            cmp.maxDelta = d;
            cmp.worstBin = i;
        }
    }
    cmp.pass = cmp.maxDelta <= cmp.threshold;
    return cmp;
}

} // namespace secdimm::verify

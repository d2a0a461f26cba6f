/**
 * @file
 * Pair statistics of two externally visible traces (the paper's
 * Section III-G privacy argument, made measurable): how far apart two
 * runs' address histograms, event kinds, event counts, event order
 * and event rhythm are.  None of these is a verdict.  The one
 * verdict, verify::compareCalibrated (leak_meter.hh), scores every
 * pair of its re-seeded runs with them and asks whether pairs of
 * different secrets sit further apart than pairs of one secret.
 *
 * Marginal statistics (compareTraces) see which addresses and kinds
 * appear; the second-order ones see order (the lag-k autocorrelation
 * of the address and gap series, acfProfile) and rhythm (the
 * differential mean-gap profile, compareGapProfiles).  A scheduler
 * that sorts a batch by a secret address, or a controller that takes
 * a secret-keyed slow path, leaves every marginal untouched and moves
 * only the second-order statistics.
 */

#ifndef SECUREDIMM_VERIFY_TRACE_STATS_HH
#define SECUREDIMM_VERIFY_TRACE_STATS_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "util/types.hh"
#include "verify/channel_observer.hh"

namespace secdimm
{
class MemoryBackend;
}

namespace secdimm::verify
{

/** Bins of compareTraces' address histograms over the pair's range. */
inline constexpr std::size_t addressBins = 64;

/** Autocorrelation lags the gate compares: 1..maxLag. */
inline constexpr unsigned maxLag = 8;

/** Address bins of compareGapProfiles. */
inline constexpr std::size_t gapProfileBins = 8;

/** compareGapProfiles skips a bin with fewer samples in either trace. */
inline constexpr std::size_t minBinSamples = 8;

/** The marginal distances of one trace pair. */
struct TraceComparison
{
    /** Total-variation distance of the binned address histograms. */
    double addressDistance = 0.0;
    /** Total-variation distance of the event-kind distributions. */
    double kindDistance = 0.0;
    /** |na - nb| / max(na, nb). */
    double countRatioDelta = 0.0;
};

/**
 * The marginal distances of @p a and @p b.  Addresses are binned over
 * the pair's combined range, so disjoint regions land in disjoint
 * bins.  An empty pair reads 0 everywhere; one empty trace reads 1.
 */
TraceComparison compareTraces(const std::vector<TraceEvent> &a,
                              const std::vector<TraceEvent> &b);

/** The address-like value of every event, in trace order. */
std::vector<double> addressSeries(const std::vector<TraceEvent> &events);

/**
 * Inter-event gap series: gaps[i] = at[i+1] - at[i] (length n-1),
 * clamped at 0.  Functional-layer traces record at == 0 for every
 * event; the result is then all-zero and carries no signal.
 */
std::vector<double> gapSeries(const std::vector<TraceEvent> &events);

/**
 * Pearson autocorrelation of @p series at @p lag.  Returns 0 for a
 * (near-)constant series or when fewer than lag+2 samples exist --
 * a series with no variance carries no ordering information.
 */
double lagAutocorrelation(const std::vector<double> &series,
                          unsigned lag);

/** lagAutocorrelation at lags 1..@p max_lag (entry k-1 is lag k). */
std::vector<double> acfProfile(const std::vector<double> &series,
                               unsigned max_lag = maxLag);

/** max_k |a[k] - b[k]| of two ACF profiles of one length. */
double maxAcfDelta(const std::vector<double> &a,
                   const std::vector<double> &b);

/** The cross-trace mean-gap-per-address-bin comparison. */
struct GapProfileComparison
{
    /** max over shared bins of |profileA - profileB| where profile =
     *  bin mean gap / trace grand mean gap; 1 when only one trace
     *  ticks or only one has a gap at all. */
    double maxDelta = 0.0;
    /** Bins that had minBinSamples samples in both traces. */
    std::size_t binsCompared = 0;
    /** Neither trace carries timing (all at == 0, or under two
     *  events each). */
    bool degenerate = false;
};

/**
 * The differential timing statistic: bin both traces' addresses over
 * their combined range into gapProfileBins bins, normalize each
 * trace's per-bin mean gap by its own grand mean, and compare the
 * profiles bin by bin.  Benign structure (row-buffer locality, bank
 * timing) shifts both profiles alike and cancels; a secret-keyed slow
 * path moves one.
 */
GapProfileComparison
compareGapProfiles(const std::vector<TraceEvent> &a,
                   const std::vector<TraceEvent> &b);

/**
 * Drive @p backend through @p accesses (byte address, is-write) with
 * the canonical event loop: stall until the backend accepts, then
 * drain until idle.  Returns the final tick.
 */
Tick driveBackend(MemoryBackend &backend,
                  const std::vector<std::pair<Addr, bool>> &accesses);

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_TRACE_STATS_HH

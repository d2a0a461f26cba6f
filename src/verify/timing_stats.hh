/**
 * @file
 * Second-order trace statistics: everything the marginal checker
 * (trace_checker.hh) is blind to.  Two instruments:
 *
 *  1. Lag-k autocorrelation comparison -- does the ORDER of events
 *     (address series) or the RHYTHM of events (inter-event gap
 *     series) differ between two traces whose marginal histograms
 *     match?  A scheduler that reorders or re-times events based on a
 *     secret changes autocorrelation while leaving every marginal
 *     untouched.
 *
 *  2. Permutation test over inter-access gaps -- within ONE trace,
 *     does the gap after an event depend on which address bin the
 *     event touched?  The null distribution is built by permuting the
 *     observed gaps over the events (seeded, deterministic), so the
 *     p-value is exact up to Monte-Carlo resolution and needs no
 *     distributional assumption.
 *
 * Both are quantitative: they report effect sizes and null bands, not
 * just booleans, so docs/VERIFICATION.md can explain what a FAIL
 * means.  See leak_meter.hh for the mutual-information estimator that
 * complements these with a bits-per-access measurement.
 */

#ifndef SECUREDIMM_VERIFY_TIMING_STATS_HH
#define SECUREDIMM_VERIFY_TIMING_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/channel_observer.hh"

namespace secdimm::verify
{

/* ------------------------------------------------------------------ */
/* Series extraction                                                   */
/* ------------------------------------------------------------------ */

/** The address-like value of every event, in trace order. */
std::vector<double> addressSeries(const std::vector<TraceEvent> &events);

/**
 * Inter-event gap series: gaps[i] = at[i+1] - at[i] (length n-1).
 * Functional-layer traces record at == 0 for every event; the result
 * is then all-zero and the gap statistics degenerate to "no signal"
 * (variance 0), which the tests below treat as a vacuous pass.
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
                               unsigned max_lag);

/* ------------------------------------------------------------------ */
/* 1. Two-trace ordering/rhythm comparison                             */
/* ------------------------------------------------------------------ */

/** Knobs of the second-order comparisons. */
struct TimingCheckOptions
{
    /** Autocorrelation lags tested: 1..maxLag. */
    unsigned maxLag = 8;

    /**
     * Width of the accepted |acf_a(k) - acf_b(k)| band, as a multiple
     * of the white-noise standard error sqrt(1/na + 1/nb).  Two
     * traces drawn from the same process keep the delta inside a few
     * standard errors; 6 leaves comfortable slack above sample noise
     * while ordering leaks (sorted windows, secret-keyed swaps) move
     * lag-1 autocorrelation by 0.2+.
     */
    double acfBandScale = 6.0;

    /** Hard floor of the band (guards tiny traces). */
    double acfBandFloor = 0.05;

    /** Permutations drawn for the gap-dependence null distribution. */
    unsigned permutations = 200;

    /** Reject H0 (gap independent of address bin) below this p. */
    double permAlpha = 0.01;

    /** Address bins the permutation test groups gaps by. */
    std::size_t permAddressBins = 8;

    /** Seed of the permutation draw (deterministic campaigns). */
    std::uint64_t seed = 0x7171u;

    /**
     * Max per-bin relative difference of the two traces' mean-gap
     * profiles (compareGapProfiles).  Benign address-timing coupling
     * (DRAM row hits) shapes BOTH profiles identically; only a
     * secret-dependent slow path moves one and not the other.
     */
    double maxGapProfileDelta = 0.25;

    /** Bins with fewer samples than this (in either trace) are
     *  skipped by compareGapProfiles. */
    std::size_t minBinSamples = 8;
};

/** Outcome of the two-trace autocorrelation comparison. */
struct AcfComparison
{
    /** max_k |acf_a(k) - acf_b(k)| over the address series. */
    double maxAddressDelta = 0.0;
    /** Same over the gap series. */
    double maxGapDelta = 0.0;
    /** Lag at which each maximum was observed. */
    unsigned worstAddressLag = 0;
    unsigned worstGapLag = 0;
    /** Accepted band for this pair of trace lengths. */
    double band = 0.0;
    bool pass = false;

    std::string summary() const;
};

/**
 * Compare the lag-1..maxLag autocorrelation profiles of the two
 * traces' address and gap series.  PASS iff both maximum deltas stay
 * inside the band.  Marginal-preserving reorderings (the classic
 * "batch scheduler sorts by address" leak) fail here while sailing
 * through compareTraces().
 */
AcfComparison compareAutocorrelation(const std::vector<TraceEvent> &a,
                                     const std::vector<TraceEvent> &b,
                                     const TimingCheckOptions &opts = {});

/* ------------------------------------------------------------------ */
/* 2. Within-trace gap/address permutation test                        */
/* ------------------------------------------------------------------ */

/** Outcome of the permutation test over inter-access gaps. */
struct GapPermutationResult
{
    /**
     * Observed statistic: between-bin variance of the mean gap,
     * weighted by bin population (one-way ANOVA numerator).  Bigger
     * means the gap depends more on the address bin.
     */
    double observedStat = 0.0;
    /** Monte-Carlo p-value: P(stat_perm >= stat_obs | H0). */
    double pValue = 1.0;
    /** Permutations actually drawn. */
    unsigned permutations = 0;
    /** True when the trace carries no usable gap signal (all at==0). */
    bool degenerate = false;
    bool pass = false;

    std::string summary() const;
};

/**
 * Test whether the gap AFTER an event depends on the event's address
 * bin.  H0 (oblivious timing) is rejected at opts.permAlpha; the
 * null distribution comes from opts.permutations seeded shuffles of
 * the gap series against the address labels.  A trace whose events
 * carry no timestamps (functional layer) passes vacuously with
 * degenerate == true.
 */
GapPermutationResult
gapPermutationTest(const std::vector<TraceEvent> &events,
                   const TimingCheckOptions &opts = {});

/* ------------------------------------------------------------------ */
/* 3. Two-trace gap-profile comparison                                 */
/* ------------------------------------------------------------------ */

/** Outcome of the cross-trace mean-gap-per-address-bin comparison. */
struct GapProfileComparison
{
    /** max over shared bins of |profileA - profileB| where profile =
     *  bin mean gap / trace grand mean gap. */
    double maxDelta = 0.0;
    std::size_t worstBin = 0;
    double threshold = 0.0;
    /** Bins that had enough samples in both traces. */
    std::size_t binsCompared = 0;
    /** Neither trace carries timing (all at==0): vacuous pass. */
    bool degenerate = false;
    bool pass = false;

    std::string summary() const;
};

/**
 * The DIFFERENTIAL timing check: bin both traces' addresses over
 * their combined range, normalize each trace's per-bin mean gap by
 * its own grand mean, and compare the profiles bin by bin.  Benign
 * structure (row-buffer locality, bank timing) shifts both traces'
 * profiles identically and cancels; a secret-keyed slow path fails.
 * This is the gate deepCompareTraces uses; the within-trace
 * permutation test above measures total timing-channel structure,
 * secret-dependent or not.
 */
GapProfileComparison
compareGapProfiles(const std::vector<TraceEvent> &a,
                   const std::vector<TraceEvent> &b,
                   const TimingCheckOptions &opts = {});

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_TIMING_STATS_HH

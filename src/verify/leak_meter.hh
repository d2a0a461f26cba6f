/**
 * @file
 * Quantitative leak measurement.  Where the trace checker renders a
 * binary indistinguishable/distinguishable verdict, this module
 * MEASURES how much a visible channel tells the adversary, in bits
 * per access:
 *
 *  - a plug-in mutual-information estimator over discrete symbol
 *    pairs, bias-corrected against shuffled pairings and reported
 *    with a bootstrap confidence interval;
 *
 *  - the PLB locality experiment the paper accepts as a deliberate
 *    leak (Freecursive's recursion depth depends on PosMap locality,
 *    Section II-D): a locality-phased workload is driven through a
 *    design and MI between the secret phase and the visible
 *    per-request channel activity is estimated.  Freecursive measures
 *    nonzero (its CI excludes 0); flat-PosMap designs measure ~0;
 *
 *  - deliberately-leaky trace transforms (ordering and timing) used
 *    as positive controls: they preserve every marginal the v1
 *    checker tests while encoding a secret in event order or event
 *    rhythm, so only the second-order statistics (timing_stats.hh)
 *    catch them;
 *
 *  - a thread-safe ScheduleRecorder + schedule comparison for
 *    concurrency-sound checking of the multi-threaded serve frontend
 *    (the recorder is the observer hook ShardedSecureMemory exposes);
 *
 *  - the calibrated gate (compareCalibrated): many re-seeded runs of
 *    two secrets, every pair statistic above tested by an exact
 *    permutation test over the run labels, so its false-alarm rate is
 *    fixed whatever the sample size or the scheduler.
 *
 * The sdimm_leakmeter CLI (tools/) drives these over every secure
 * DesignPoint and emits a JSON report; docs/VERIFICATION.md explains
 * how to read it.
 */

#ifndef SECUREDIMM_VERIFY_LEAK_METER_HH
#define SECUREDIMM_VERIFY_LEAK_METER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"
#include "verify/timing_stats.hh"
#include "verify/trace_checker.hh"

namespace secdimm::verify
{

/* ------------------------------------------------------------------ */
/* Mutual-information estimation                                       */
/* ------------------------------------------------------------------ */

/** Knobs of the MI estimator. */
struct MiOptions
{
    /** Bootstrap replicates behind the confidence interval. */
    unsigned bootstrap = 200;

    /** Shuffled pairings per bias estimate. */
    unsigned shuffles = 32;

    /** Shuffles per bootstrap replicate (bias inside the CI). */
    unsigned shufflesPerReplicate = 8;

    /** Symbol alphabets larger than this are range-binned down. */
    std::size_t maxSymbols = 64;

    /** Seed of every internal draw (deterministic campaigns). */
    std::uint64_t seed = 0x3b1a5u;
};

/** Point estimate + uncertainty of one MI measurement. */
struct MiEstimate
{
    /** Bias-corrected estimate, floored at 0 (the reported number). */
    double bitsPerAccess = 0.0;
    /** Uncorrected plug-in estimate. */
    double rawBits = 0.0;
    /** Estimated small-sample bias (mean MI of shuffled pairings). */
    double biasBits = 0.0;
    /** 95% bootstrap percentile interval of the corrected estimate.
     *  ciLow may be negative: that is what "consistent with zero
     *  leak" looks like. */
    double ciLow = 0.0;
    double ciHigh = 0.0;
    std::size_t samples = 0;

    /** The CI excludes zero: the channel measurably leaks. */
    bool leakDetected() const { return ciLow > 1e-9; }

    std::string summary() const;
};

/**
 * Estimate I(X;Y) in bits from paired discrete observations.  The
 * plug-in estimate is bias-corrected by subtracting the mean MI of
 * opts.shuffles random re-pairings (which destroys any dependence
 * while keeping both marginals), and the CI comes from
 * opts.bootstrap resampled replicates, each bias-corrected the same
 * way.  x and y must have equal, nonzero length.
 */
MiEstimate estimateMutualInformation(const std::vector<unsigned> &x,
                                     const std::vector<unsigned> &y,
                                     const MiOptions &opts = {});

/* ------------------------------------------------------------------ */
/* The PLB locality experiment                                         */
/* ------------------------------------------------------------------ */

/** Designs the built-in experiment knows how to build. */
enum class LeakDesign
{
    PathOram,    ///< Flat PosMap: recursion depth is constant.
    Freecursive, ///< Recursive PosMaps + PLB: depth tracks locality.
};

const char *leakDesignName(LeakDesign design);

/** Shape of the locality-phased workload. */
struct PlbLeakOptions
{
    /** Requests driven (= MI sample count). */
    std::size_t requests = 3000;

    /** Requests per phase; the secret phase label flips per phase. */
    std::size_t phaseLen = 16;

    /** Blocks a local phase confines itself to. */
    std::size_t localityWindow = 8;

    /** Data-tree depth (capacity = 2^(levels+1) blocks at Z=4). */
    unsigned dataLevels = 11;

    /** PLB capacity in PosMap blocks (Freecursive only). */
    std::size_t plbEntries = 64;

    std::uint64_t seed = 1;

    MiOptions mi;
};

/** Everything one leak measurement produced. */
struct LeakReport
{
    std::string design;
    MiEstimate mi;
    /** Mean visible events per request in each phase (descriptive). */
    double meanVisibleLocal = 0.0;
    double meanVisibleScatter = 0.0;
    std::size_t requests = 0;

    std::string summary() const;
    /** One compact JSON object (the CLI embeds it per design). */
    std::string toJson() const;
};

/**
 * Run the locality-phased workload against a freshly built design and
 * estimate MI between the secret phase label and the externally
 * visible per-request bucket-store activity.
 */
LeakReport measurePlbLocalityLeak(LeakDesign design,
                                  const PlbLeakOptions &opts = {});

/**
 * Generic form for protocols the built-in experiment cannot
 * construct (the CLI uses this for the SDIMM designs): the harness
 * draws the workload, calls @p access for every request, and reads
 * @p visibleCount (cumulative externally visible event count) before
 * and after to obtain the per-request observable.  @p capacityBlocks
 * bounds the drawn addresses.
 */
LeakReport measureLocalityLeakWith(
    const std::string &design_name, std::uint64_t capacity_blocks,
    const PlbLeakOptions &opts,
    const std::function<void(Addr)> &access,
    const std::function<std::uint64_t()> &visibleCount);

/**
 * measureLocalityLeakWith over a functional protocol's observed
 * channel: @p access reads one block, and the visible count is the
 * number of events @p observer has recorded, one per command or path
 * (a payload Transfer rides with its command).
 */
LeakReport measureObservedLocalityLeak(
    const std::string &design_name, std::uint64_t capacity_blocks,
    const PlbLeakOptions &opts, const std::function<void(Addr)> &access,
    const ChannelObserver &observer);

/* ------------------------------------------------------------------ */
/* Deliberately-leaky positive controls                                */
/* ------------------------------------------------------------------ */

/**
 * Ordering leak: sort each consecutive window of @p window events by
 * address, keeping every tick in place -- the schedule a
 * batch-scheduler that orders requests by (secret) address would
 * emit.  Marginal address/kind/count statistics are EXACTLY
 * preserved (same multiset, same timestamps), so compareTraces
 * passes; compareAutocorrelation fails on the address series.
 */
std::vector<TraceEvent>
injectOrderingLeak(std::vector<TraceEvent> events, std::size_t window = 8);

/**
 * Timing leak: delay everything after an event whose address falls in
 * [hot_lo, hot_hi) by @p extra_ticks -- a controller that takes a
 * (secret-dependent) slow path.  The event sequence is untouched, so
 * the v1 checker (which ignores timestamps entirely) passes;
 * gapPermutationTest and compareGapProfiles fail.
 */
std::vector<TraceEvent>
injectTimingLeak(std::vector<TraceEvent> events, std::uint64_t hot_lo,
                 std::uint64_t hot_hi, Tick extra_ticks);

/* ------------------------------------------------------------------ */
/* Concurrency-sound checking                                          */
/* ------------------------------------------------------------------ */

/** One processed request, as the shard workers interleaved them. */
struct ScheduleEvent
{
    unsigned shard = 0;
    bool write = false;
    /** Global completion order (assigned under the recorder lock). */
    std::uint64_t seq = 0;
};

/**
 * Thread-safe sink for the serve layer's per-request observer hook
 * (ShardedSecureMemory::setScheduleRecorder).  Workers call record()
 * concurrently; tests read events() after drain()/shutdown().
 */
class ScheduleRecorder
{
  public:
    void
    record(unsigned shard, bool write)
    {
        std::lock_guard<std::mutex> lk(mu_);
        events_.push_back(
            ScheduleEvent{shard, write,
                          static_cast<std::uint64_t>(events_.size())});
    }

    std::vector<ScheduleEvent>
    events() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return events_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return events_.size();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mu_);
        events_.clear();
    }

  private:
    mutable std::mutex mu_;
    std::vector<ScheduleEvent> events_;
};

/** Render a schedule as a trace (addr = shard id, at = seq). */
std::vector<TraceEvent>
scheduleToTrace(const std::vector<ScheduleEvent> &schedule);

/** Verdict over a pair of interleaved schedules. */
struct ScheduleComparison
{
    /** Marginal shard-occupancy + kind-mix comparison (v1 semantics). */
    TraceComparison marginal;
    /** Ordering comparison over the global shard-id sequence. */
    AcfComparison ordering;
    /**
     * The concurrency-sound core: per shard, the ACF profile of that
     * shard's read/write indicator SUBSEQUENCE.  Per-shard order is
     * exactly the shard's FIFO service order.  With one submitting
     * thread it is fixed by the submission order and untouched by
     * how the OS interleaves the shard workers; with several client
     * threads it follows how their submissions raced.  Either way a
     * secret-keyed within-shard reordering (writes first, sorted
     * batches) moves it far more than scheduler noise does.
     */
    double maxPerShardKindDelta = 0.0;
    unsigned worstShard = 0;
    double perShardBand = 0.0;
    bool perShardPass = false;
    bool pass = false;

    std::string summary() const;
};

/**
 * Compare two interleaved schedules recorded under workloads that
 * differ only in their secret: which shards served, in what mix, in
 * what global order, and in what per-shard order must all be
 * statistically alike.
 */
ScheduleComparison
compareSchedules(const std::vector<ScheduleEvent> &a,
                 const std::vector<ScheduleEvent> &b,
                 const DeepCheckOptions &opts = {});

/* ------------------------------------------------------------------ */
/* The calibrated run-level gate                                       */
/* ------------------------------------------------------------------ */

/**
 * What the adversary sees of one run of a sharded service: each
 * shard's channel trace and the completion-order schedule.  A caller
 * that does not observe one of the two leaves it empty.
 */
struct Observation
{
    std::vector<std::vector<TraceEvent>> shardTraces;
    std::vector<ScheduleEvent> schedule;
};

/** Runs of each secret the calibrated gate draws (R). */
inline constexpr unsigned calibratedDraws = 12;

/**
 * False-alarm rate of one calibrated comparison (alpha), split
 * Bonferroni-style over its statistics.  A full ctest run makes
 * fewer than ten comparisons whose runs are not seeded end to end,
 * so it fails on an honest design with probability below 1e-3.
 */
inline constexpr double calibratedAlpha = 1e-4;

/** One statistic of a calibrated comparison. */
struct CalibratedStatistic
{
    /** "shard<s>.<stat>" or "schedule.<stat>". */
    std::string name;
    /** T = mean cross-secret pair value - mean same-secret one. */
    double effect = 0.0;
    /** Share of run relabelings whose T is at least the observed T. */
    double pValue = 1.0;
};

/** Verdict of the calibrated gate. */
struct CalibratedComparison
{
    /** Smallest reachable p: 2 / C(2R, R). */
    double pFloor = 0.0;
    /** alpha / (number of statistics). */
    double threshold = 0.0;
    std::vector<CalibratedStatistic> statistics;
    /** Index of the statistic with the smallest p. */
    std::size_t worst = 0;
    bool pass = false;

    /** Every statistic whose name starts with @p prefix passes. */
    bool passes(const std::string &prefix) const;

    std::string summary() const;
};

/**
 * One run of the workload under secret @p secret (0 or 1).  @p draw
 * is the run's position in the gate's sequence (0..2R-1), distinct
 * for every run: derive every public seed -- submission order,
 * engine seeds -- from it, so that no two runs share one.
 */
using ObservationRun =
    std::function<Observation(unsigned secret, std::uint64_t draw)>;

/**
 * The calibrated gate.  Runs R draws of each secret, alternating
 * A B A B ... so that host drift hits both secrets alike, and scores
 * every pair of runs with the numbers the pair functions produce:
 * per shard the compareTraces distances, the compareAutocorrelation
 * deltas and the compareGapProfiles delta; over the schedule the
 * compareSchedules occupancy, kind and count distances, global ACF
 * delta and per-shard kind ACF delta.  For each statistic
 * T = mean(cross-secret pairs) - mean(same-secret pairs) is tested
 * against every relabeling of the 2R runs into two halves: with no
 * leak the runs are exchangeable, so each p is exact whatever the
 * sample size or the scheduler.  PASS iff every p > alpha / m for
 * the m statistics.
 */
CalibratedComparison compareCalibrated(const ObservationRun &run);

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_LEAK_METER_HH

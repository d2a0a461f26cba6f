/**
 * @file
 * Event-driven timing model of one DDR channel: per-bank row state,
 * per-rank activation/turnaround/refresh/power fences, a shared data
 * bus, and an FR-FCFS scheduler with write-drain hysteresis.
 *
 * The model is behaviour-equivalent to a per-cycle USIMM-style loop for
 * the constraints it enforces, but advances directly between command
 * issue instants so large ORAM path sweeps simulate quickly.
 */

#ifndef SECUREDIMM_DRAM_CHANNEL_HH
#define SECUREDIMM_DRAM_CHANNEL_HH

#include <functional>
#include <string>
#include <vector>

#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/rank.hh"
#include "dram/request.hh"
#include "dram/scheduler.hh"
#include "dram/timing.hh"
#include "util/metrics.hh"

namespace secdimm::fault
{
class FaultInjector;
}

namespace secdimm::dram
{

/** Aggregate activity counters consumed by the power model. */
struct ChannelStats
{
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t powerDownEntries = 0;
    std::uint64_t powerUps = 0;
    std::uint64_t rankSwitches = 0;  ///< Bursts paying tRTRS.

    double readLatencySum = 0.0;     ///< Enqueue-to-data, cycles.
    std::uint64_t readLatencyCount = 0;

    double
    avgReadLatency() const
    {
        return readLatencyCount ? readLatencySum / readLatencyCount : 0.0;
    }
};

/**
 * One DDR channel with its DIMM ranks.  Requests arrive with a
 * timestamp (which may be in the future); completions are delivered
 * through a callback carrying the finish tick.
 */
class DramChannel
{
  public:
    using CompletionFn = std::function<void(const DramCompletion &)>;

    /**
     * Fired once per issued CAS with the request and its data-burst
     * completion tick: the externally visible (command, address, time)
     * tuple an adversary probing this channel observes.  Used by
     * verify::ChannelObserver.
     */
    using CasObserverFn =
        std::function<void(const DramRequest &, Tick data_end)>;

    DramChannel(std::string name, const TimingParams &timing,
                const Geometry &geom, MapPolicy map_policy,
                SchedPolicy sched_policy = SchedPolicy::FrFcfs);

    /** Register the single completion consumer. */
    void setCompletionCallback(CompletionFn fn) { onComplete_ = std::move(fn); }

    /** Register the (single) bus-trace observer; empty fn detaches. */
    void setCasObserver(CasObserverFn fn) { onCas_ = std::move(fn); }

    /**
     * Arm read-burst fault injection (nullptr disarms).  A rolled bit
     * flip on a read CAS models an ECC/MAC-detected burst error: the
     * burst occupies the bus and pays full timing, but the request
     * stays queued and the CAS is re-issued (bounded by the plan's
     * retry budget) instead of completing.  Not owned.
     */
    void setFaultInjector(fault::FaultInjector *inj) { injector_ = inj; }

    /** True if a new request of the given kind fits in its queue. */
    bool canEnqueue(bool write) const;

    /**
     * Queue one 64-byte access to channel-local block @p block_index,
     * becoming visible to the scheduler at @p at.
     */
    void enqueue(std::uint64_t id, Addr block_index, bool write, Tick at);

    /**
     * Earliest tick at which the channel could issue its next command
     * (tickNever when fully idle).
     */
    Tick nextEventAt() const;

    /** Issue every command legal at or before @p now. */
    void advanceTo(Tick now);

    /** Run until all queued requests have issued; returns final tick. */
    Tick drain();

    bool idle() const { return readQ_.empty() && writeQ_.empty(); }
    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /** Explicit power control for the SDIMM low-power policy. */
    void powerDownRank(unsigned rank, Tick now);
    void wakeRank(unsigned rank, Tick now);

    /** Enable idle-timeout power-down (0 disables). */
    void setIdlePowerDown(Cycles idle_threshold);

    /** Close accounting at end of simulation. */
    void finalizeStats(Tick end);

    /**
     * Export this channel's counters into @p m under @p prefix
     * (row hits/misses, command counts, power-state residency; see
     * docs/METRICS.md "dram.*").  Call after finalizeStats().
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const;

    const ChannelStats &stats() const { return stats_; }
    const std::vector<RankState> &rankStates() const { return ranks_; }
    const TimingParams &timing() const { return timing_; }
    const Geometry &geometry() const { return geom_; }
    const AddressMap &addressMap() const { return map_; }
    const std::string &name() const { return name_; }
    Tick curTick() const { return curTick_; }

  private:
    /** Scheduler-internal view of one queued request. */
    struct Entry
    {
        DramRequest req;
        bool actIssuedForUs = false;
        unsigned eccRetries = 0; ///< Re-issued CAS count (faults).
    };

    /** Which command a request needs next, with its earliest tick. */
    struct NextAction
    {
        enum class Kind { Pre, Act, Cas } kind = Kind::Cas;
        Tick at = 0;
        bool rowHit = false;
    };

    BankState &bank(const DramCoord &c);
    RankState &rank(unsigned r) { return ranks_[r]; }

    NextAction nextAction(const Entry &e) const;
    Tick earliestCas(const Entry &e) const;

    /** Pick a request (index into queue) per policy; -1 if none. */
    int pick(const std::vector<Entry> &q, Tick horizon,
             Tick &best_at) const;

    void issuePre(Entry &e, Tick t);
    void issueAct(Entry &e, Tick t);
    void issueCas(std::vector<Entry> &q, std::size_t idx, Tick t);

    void applyDueRefreshes(Tick now);
    void applyIdlePowerDown(Tick now);
    bool rankHasQueuedWork(unsigned r) const;

    bool drainingWrites() const;

    std::string name_;
    TimingParams timing_;
    Geometry geom_;
    AddressMap map_;
    SchedPolicy schedPolicy_;
    WriteDrainPolicy drainPolicy_;

    std::vector<BankState> banks_;  ///< [rank * banksPerRank + bank].
    std::vector<RankState> ranks_;
    std::vector<Tick> rankLastActivity_;

    std::vector<Entry> readQ_;
    std::vector<Entry> writeQ_;
    bool writeDrainMode_ = false;

    Tick curTick_ = 0;
    Tick dataBusFreeAt_ = 0;
    int lastBurstRank_ = -1;
    bool lastBurstWasWrite_ = false;

    Cycles idlePowerDownThreshold_ = 0;

    ChannelStats stats_;
    CompletionFn onComplete_;
    CasObserverFn onCas_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace secdimm::dram

#endif // SECUREDIMM_DRAM_CHANNEL_HH

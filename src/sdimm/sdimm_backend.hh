/**
 * @file
 * The CPU side shared by the SDIMM timing backends, Independent
 * (Section III-C) and Split / INDEP-SPLIT (Section III-D, Figure 7e).
 * The frontend (PLB + PosMap) turns each LLC miss into 1..n+1
 * accessORAM ops and runs them one after another; each op goes to one
 * unit -- an SDIMM's PathExecutor or a Split group -- behind the CPU
 * link buses.  This class owns the jobs, the ops in flight, the
 * recursion engine, the buses, the completion callback, the event
 * fan-out over the units and the report; a backend supplies only its
 * wire charges: how an op reaches its unit (startOp) and what the CPU
 * pays once the unit has the result (finishOp).
 */

#ifndef SECUREDIMM_SDIMM_SDIMM_BACKEND_HH
#define SECUREDIMM_SDIMM_SDIMM_BACKEND_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dram/power_model.hh"
#include "fault/fault_plan.hh"
#include "fault/fault_types.hh"
#include "oram/recursion.hh"
#include "sdimm/link_bus.hh"
#include "trace/memory_backend.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace secdimm::sdimm
{

/** Shared configuration of the SDIMM timing backends. */
struct SdimmTimingConfig
{
    oram::OramParams perSdimm;   ///< Local tree of each SDIMM.
    oram::RecursionParams recursion;
    unsigned numSdimms = 2;
    unsigned cpuChannels = 1;    ///< LinkBus count (SDIMMs round-robin).
    dram::TimingParams timing;   ///< Shared DDR timing.
    dram::Geometry sdimmGeom;    ///< Internal geometry of one SDIMM.
    bool lowPower = true;        ///< Section III-E layout/power-down.
    Cycles probeInterval = 32;   ///< PROBE polling cadence.

    /**
     * Transfer-queue drain probability p (Section IV-C).  With the
     * 8 KB buffer (128 entries), p = 0.1 gives rho = 0.71 and an
     * overflow probability ~1e-19 (see analytic::mm1k) at a 10%
     * accessORAM overhead.
     */
    double drainProb = 0.1;

    /**
     * Fault campaign (IndependentBackend only).  Permanent faults are
     * the interesting part here: a dead SDIMM costs watchdog backoff
     * waits plus a bulk evacuation transfer on every surviving bus,
     * and a DegradedLatency unit taxes each of its ops -- all of
     * which lands in SimResult.recoveryCycles.  An empty plan leaves
     * the backend bit-identical to the pre-fault model.
     */
    fault::FaultPlan faultPlan;
    fault::DegradationPolicy policy = fault::DegradationPolicy::Degraded;

    SdimmTimingConfig()
    {
        sdimmGeom.channels = 1;
        sdimmGeom.ranksPerChannel = 4; // Quad-rank SDIMM (Sec III-E).
    }
};

/**
 * One unit behind the CPU link buses that runs whole accessORAMs on
 * its own DRAM: an SDIMM's PathExecutor, or a Split group.
 */
class SdimmUnit
{
  public:
    /** Fired when an op's result is ready: at the SDIMM's buffer
     *  (PathExecutor) or already at the CPU (a Split group). */
    using OpDoneFn = std::function<void(std::uint64_t tag, Tick at)>;

    virtual ~SdimmUnit() = default;

    void setOpDoneCallback(OpDoneFn fn) { onOpDone_ = std::move(fn); }

    /** Queue one accessORAM; it may start at or after @p ready_at. */
    virtual void submitOp(std::uint64_t tag, Tick ready_at) = 0;

    virtual Tick nextEventAt() const = 0;
    virtual void advanceTo(Tick now) = 0;
    virtual bool idle() const = 0;

    /**
     * Close a run at @p end on every internal DRAM channel (see
     * dram::closeChannel): energy under @p pm into @p report, stats
     * as "dram.<channel>".
     */
    virtual void closeChannels(Tick end, const dram::PowerModel &pm,
                               BackendReport &report) = 0;

    std::uint64_t opsExecuted() const { return opsExecuted_; }

    /** Export ops-executed + queue-depth under @p prefix. */
    void
    exportMetrics(util::MetricsRegistry &m,
                  const std::string &prefix) const
    {
        m.setCounter(prefix + ".ops_executed", opsExecuted_);
        m.histogram(prefix + ".queue_depth").merge(queueDepth_);
    }

  protected:
    OpDoneFn onOpDone_;
    std::uint64_t opsExecuted_ = 0;
    util::LogHistogram queueDepth_;
};

/** The SDIMM CPU side; a design derives and adds its wire charges. */
class SdimmBackend : public MemoryBackend
{
  public:
    // Units call back into this object.
    SdimmBackend(const SdimmBackend &) = delete;
    SdimmBackend &operator=(const SdimmBackend &) = delete;

    void setCompletionCallback(CompletionFn fn) override;
    bool canAccept() const override;
    void access(std::uint64_t id, Addr byte_addr, bool write,
                Tick now) override;
    Tick nextEventAt() const override;
    void advanceTo(Tick now) override;
    bool idle() const override;

    /** Attaches the CPU link buses, never a unit's DRAM. */
    unsigned attachObserver(const TimedTraceEventFn &fn) override;
    void closeRun(Tick end, BackendReport &report) override;

    LinkBus &bus(unsigned channel) { return *buses_[channel]; }
    unsigned busCount() const
    {
        return static_cast<unsigned>(buses_.size());
    }
    const oram::RecursionEngine &recursion() const { return recursion_; }

    /** Sum of off-DIMM (CPU channel) data lines. */
    std::uint64_t offDimmLines() const;

  protected:
    /** What the CPU keeps of one op in flight. */
    struct OpRef
    {
        std::uint64_t jobId;
        unsigned unit;
        Tick issuedAt;
        bool drain; ///< Overflow-avoidance op; no CPU-visible result.
    };

    /** @param unit_prefix  metrics prefix of unit i ("<prefix>i") */
    SdimmBackend(const SdimmTimingConfig &config, std::uint64_t seed,
                 std::string unit_prefix);

    /** Register the next unit; its ops complete through finishOp(). */
    void addUnit(SdimmUnit &unit);

    /** Queue @p ref's op on its unit, ready at @p ready_at. */
    void submitOp(const OpRef &ref, Tick ready_at);

    /** The bus of global SDIMM (or Split slice) @p sdimm: SDIMMs sit
     *  round-robin on the CPU channels. */
    LinkBus &busOf(unsigned sdimm)
    {
        return *buses_[sdimm % config_.cpuChannels];
    }

    /**
     * Ship job @p job_id's next accessORAM, ready at @p ready_at:
     * choose its unit, charge the wire, then submitOp().
     */
    virtual void startOp(std::uint64_t job_id, Tick ready_at) = 0;

    /**
     * Charge the wire for real op @p ref, whose result is ready at
     * @p at (see SdimmUnit::OpDoneFn); may submit a drain op.  Returns
     * the tick the CPU holds the decrypted block.
     */
    virtual Tick finishOp(const OpRef &ref, Tick at) = 0;

    SdimmTimingConfig config_;
    Rng rng_;

  private:
    void onOpDone(std::uint64_t tag, Tick at);

    std::string unitPrefix_;
    oram::RecursionEngine recursion_;
    CompletionFn onComplete_;
    std::vector<std::unique_ptr<LinkBus>> buses_;
    std::vector<SdimmUnit *> units_;

    /** Job id -> accessORAMs it still has to run. */
    std::unordered_map<std::uint64_t, unsigned> opsLeft_;
    /** Unit op tag -> its op. */
    std::unordered_map<std::uint64_t, OpRef> ops_;
    std::uint64_t nextTag_ = 1;

    static constexpr std::size_t jobCapacity_ = 16;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_SDIMM_BACKEND_HH

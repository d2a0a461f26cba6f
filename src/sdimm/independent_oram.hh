/**
 * @file
 * Functional Independent ORAM (Section III-C): the address space is
 * partitioned across SDIMMs by the top bits of the (global) leaf ID;
 * each SDIMM runs a complete local Path ORAM.  The CPU keeps the
 * PosMap/frontend; per access it sends one ACCESS to the
 * leaf-determined SDIMM, polls with PROBE, FETCHes the result, and
 * obfuscates the block's relocation with one APPEND to *every* SDIMM
 * (exactly one carries the real block).
 */

#ifndef SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH
#define SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_types.hh"
#include "oram/path_oram.hh"
#include "sdimm/sdimm_command.hh"
#include "sdimm/secure_buffer.hh"

namespace secdimm::sdimm
{

/** Functional distributed Independent ORAM. */
class IndependentOram final : public oram::OramEngine
{
  public:
    struct Params
    {
        oram::OramParams perSdimm; ///< Local tree of EACH SDIMM.
        unsigned numSdimms = 2;    ///< Power of two.
        std::size_t transferCapacity = 64;
        double drainProb = 0.25;
    };

    IndependentOram(const Params &params, std::uint64_t seed);

    /** Total data capacity in blocks. */
    std::uint64_t capacityBlocks() const;

    /** accessORAM against the distributed tree. */
    BlockData access(Addr addr, oram::OramOp op,
                     const BlockData *new_data = nullptr) override;

    /** Sum of every SDIMM's accessORAM operations. */
    std::uint64_t accessCount() const override;

    /**
     * The visible channel: one ShortCmd per bus command, addressed
     * (command type << 8) | SDIMM, followed by a Transfer of the
     * sealed payload size when the command carries one.
     */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        observer_ = fn;
        return 1;
    }

    unsigned numSdimms() const { return params_.numSdimms; }
    const Params &params() const { return params_; }
    SecureBuffer &buffer(unsigned i) { return *buffers_[i]; }
    const SecureBuffer &buffer(unsigned i) const { return *buffers_[i]; }

    /** Every tree, link, and queue check passed so far. */
    bool integrityOk() const override;

    /** Current global leaf of a block (tests only). */
    LeafId leafOf(Addr addr) const { return posMap_.at(addr); }

    /**
     * Arm link/DRAM fault injection and bounded detect-and-retry
     * (nullptr disarms).  @p policy decides what an exhausted retry
     * budget does: RetryThenStop marks the protocol failed
     * (integrityOk() goes false, further data is zeros), Degraded
     * quarantines the offending SDIMM and routes new leaf draws
     * around it, FailStop behaves like a zero-retry budget.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy policy =
                              fault::DegradationPolicy::RetryThenStop)
        override;

    /** Remove @p sdimm from service (Degraded policy). */
    void quarantine(unsigned sdimm);
    bool isQuarantined(unsigned sdimm) const
    {
        return sdimm < quarantined_.size() && quarantined_[sdimm];
    }
    unsigned quarantinedCount() const;

    /** True once an unrecoverable fault stopped the protocol. */
    bool failedStop() const { return failedStop_; }

    /** Live blocks drained off quarantined SDIMMs so far. */
    std::uint64_t evacuatedBlocks() const { return evacuatedBlocks_; }

    /** Deaths detected and handled INSIDE a running evacuation
     *  (re-entrant recovery; correlated cascades land here). */
    std::uint64_t nestedEvacuations() const { return nestedEvacuations_; }

    /** Units proactively evacuated on latency-tax EWMA (not dead). */
    std::uint64_t retiredUnits() const { return retiredUnits_; }

    /** Byzantine units convicted (mistrust score or in-access
     *  preemption) and obliviously evicted so far. */
    std::uint64_t convictedUnits() const { return convictedUnits_; }

    /**
     * Export per-buffer and per-command-type channel-traffic metrics
     * under @p prefix ("sdimm" in the facade; docs/METRICS.md).
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Fold every buffer's crypto work into @p t (crypto.*). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        for (const auto &b : buffers_)
            b->collectCrypto(t);
    }

  private:
    unsigned sdimmOf(LeafId global_leaf) const;
    LeafId localLeaf(LeafId global_leaf) const;

    /** Report one bus command to the observer and the totals. */
    void recordBus(SdimmCommandType type, unsigned sdimm,
                   std::size_t bytes);

    /** Draw a global leaf whose SDIMM is not quarantined. */
    LeafId drawGlobalLeaf();

    /**
     * Ship a sealed uplink message across the (possibly faulty) wire
     * and hand it to @p deliver; retries with a freshly sealed copy
     * from @p reseal until it is accepted or the budget runs out.
     * Returns true on acceptance.
     */
    bool transmitUplink(unsigned sdimm, SdimmCommandType type,
                        const std::function<SealedMessage()> &reseal,
                        const std::function<bool(const SealedMessage &)>
                            &deliver);

    /** Exhausted-budget handling per the degradation policy. */
    void onUnrecoverable(fault::FaultKind kind, unsigned sdimm,
                         const std::string &site, unsigned attempts);

    /**
     * Detect permanent faults that activated since the last access:
     * runs the watchdog against every newly dead SDIMM, then
     * quarantines + evacuates (Degraded) or fail-stops.  Called at
     * the top of access(), before the PosMap lookup, because the
     * APPEND broadcast touches every SDIMM each access anyway.
     */
    void sweepPermanentFaults();

    /** PROBE @p sdimm watchdogMaxProbes times with capped exponential
     *  backoff; closes the WatchdogTimeout detection for the unit. */
    void runWatchdog(unsigned sdimm);

    /**
     * Degraded-policy disposition of a detected-dead unit: quarantine
     * and evacuate onto survivors, UNLESS this unit is the last one
     * in service -- then there is nowhere to evacuate to and the
     * system records a distinct zero-survivor ledger entry
     * (unrecovered at site "<site>.zero_survivors") and fail-stops
     * instead of dummy-padding an APPEND stream into nothing.
     * Re-entrant: safe to call from inside evacuateSdimm().
     */
    void handleDeadUnit(unsigned sdimm, const std::string &site,
                        unsigned attempts);

    /**
     * Proactive retirement: feed each live unit's latency tax into
     * the injector's EWMA and obliviously evacuate a unit whose tax
     * stayed above plan.retireTaxThresholdCycles long enough
     * (hysteresis), before it hard-dies.  The last unit in service is
     * never retired.  No ledger event: a timing tax is not a fault.
     */
    void sweepRetirement();

    /**
     * Feed one access's attributed integrity-failure count for
     * @p sdimm into the injector's mistrust EWMA and convict the unit
     * if its score has now sat above the threshold long enough
     * (hysteresis).  Called once per access for the unit the downlink
     * exercised -- the CPU cannot tell a lying unit from a noisy link,
     * so EVERY downlink failure blames the unit and the EWMA threshold
     * is what separates transient noise (decays) from adversarial
     * behavior (accrues).
     */
    void noteUnitSuspicion(unsigned sdimm, double blame);

    /**
     * Convict @p sdimm as byzantine: one ByzantineConvict ledger
     * episode, paired with a recovered record (site
     * "mistrust.sdimmN") when survivors remain -- the unit is then
     * quarantined and obliviously evacuated exactly like a dead one --
     * or with an unrecovered record (".zero_survivors") plus a
     * fail-stop when it is the last unit in service.
     */
    void convictUnit(unsigned sdimm);

    /**
     * Oblivious subtree evacuation: drain the quarantined SDIMM's
     * live blocks (maintenance-path read), silently remap them off
     * the dead unit in the CPU-private PosMap, and re-append them to
     * survivors under max(tree capacity, live count) dummy-padded
     * APPEND slots -- a count that depends only on tree geometry and
     * the public leaf randomness, never on block contents.
     */
    void evacuateSdimm(unsigned sdimm);

    Params params_;
    unsigned localLevels_;
    Rng rng_;
    std::vector<std::unique_ptr<SecureBuffer>> buffers_;
    std::vector<LeafId> posMap_;
    TraceEventFn observer_;
    /** Indexed by SdimmCommandType. */
    std::array<std::uint64_t, 9> cmdCounts_{};
    std::array<std::uint64_t, 9> cmdBytes_{};
    fault::FaultInjector *injector_ = nullptr;
    fault::DegradationPolicy policy_ =
        fault::DegradationPolicy::RetryThenStop;
    std::vector<bool> quarantined_;
    bool failedStop_ = false;
    std::uint64_t degradedAccesses_ = 0;
    std::uint64_t evacuatedBlocks_ = 0;
    std::uint64_t nestedEvacuations_ = 0;
    std::uint64_t retiredUnits_ = 0;
    std::uint64_t convictedUnits_ = 0;
    unsigned evacuationDepth_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH

/**
 * @file
 * Functional INDEP-SPLIT (Figure 7e): the address space is
 * partitioned by the top leaf bits across Independent groups, and
 * each group is itself a Split ORAM over several SDIMM slices.  The
 * CPU keeps the global PosMap; moving a block between groups is
 * obfuscated by one APPEND per group, exactly as in the pure
 * Independent protocol.
 */

#ifndef SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH
#define SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_types.hh"
#include "sdimm/sdimm_command.hh"
#include "sdimm/split_oram.hh"

namespace secdimm::sdimm
{

/** Functional combined Independent-of-Splits ORAM. */
class IndepSplitOram final : public oram::OramEngine
{
  public:
    struct Params
    {
        oram::OramParams perGroupTree; ///< Each group's (full) tree.
        unsigned groups = 2;           ///< Independent partitions.
        unsigned slicesPerGroup = 2;   ///< Split width inside a group.
    };

    IndepSplitOram(const Params &params, std::uint64_t seed);

    std::uint64_t capacityBlocks() const;

    BlockData access(Addr addr, oram::OramOp op,
                     const BlockData *new_data = nullptr) override;

    /** Sum of every group's accessORAM operations. */
    std::uint64_t accessCount() const override;

    unsigned groups() const { return params_.groups; }
    const Params &params() const { return params_; }
    SplitOram &group(unsigned g) { return *groups_[g]; }
    const SplitOram &group(unsigned g) const { return *groups_[g]; }

    /**
     * The visible channel: one ShortCmd per inter-group command,
     * addressed (command type << 8) | group.
     */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        observer_ = fn;
        return 1;
    }

    bool integrityOk() const override;

    LeafId leafOf(Addr addr) const { return posMap_.at(addr); }

    /**
     * Arm fault injection across every group plus the inter-group
     * command wire (nullptr disarms).  Under Degraded, quarantine is
     * lifted to the *group* level (group fail-over): an exhausted
     * budget or a watchdog-detected dead group quarantines the whole
     * group and obliviously evacuates its live blocks to the
     * survivors; other policies fail-stop the protocol.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy policy =
                              fault::DegradationPolicy::RetryThenStop)
        override;

    /** Remove @p g from service (Degraded policy; group fail-over). */
    void quarantineGroup(unsigned g);
    bool isGroupQuarantined(unsigned g) const
    {
        return g < quarantinedGroups_.size() && quarantinedGroups_[g];
    }
    unsigned quarantinedGroupCount() const;

    /** Live blocks drained off quarantined groups so far. */
    std::uint64_t evacuatedBlocks() const { return evacuatedBlocks_; }

    /** Group deaths detected and handled INSIDE a running evacuation
     *  (re-entrant recovery; correlated cascades land here). */
    std::uint64_t nestedEvacuations() const { return nestedEvacuations_; }

    /** Groups proactively evacuated on latency-tax EWMA (not dead). */
    std::uint64_t retiredUnits() const { return retiredUnits_; }

    /** Byzantine groups convicted (mistrust score or in-access
     *  preemption) and obliviously evicted so far. */
    std::uint64_t convictedUnits() const { return convictedUnits_; }

    /** True once an unrecoverable fault stopped the protocol. */
    bool failedStop() const { return failedStop_; }

    /**
     * Export per-group Split counters (under ".gN") plus the
     * inter-group APPEND split and fail-stop state under @p prefix.
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Fold every group's crypto work into @p t (crypto.*). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        for (const auto &g : groups_)
            g->collectCrypto(t);
    }

  private:
    unsigned groupOf(LeafId global_leaf) const;

    /** Report one inter-group command to the observer. */
    void recordBus(SdimmCommandType type, unsigned g);
    LeafId localLeaf(LeafId global_leaf) const;

    /**
     * Put one inter-group command on the bus, retrying through
     * injected wire faults (each retransmission is a fresh bus
     * event).  False once the budget is exhausted (fail-stop).
     */
    bool transmitGroupCommand(SdimmCommandType type, unsigned g,
                              const char *site);

    /** Draw a global leaf whose group is not quarantined (one draw
     *  when nothing is quarantined; redraws consult only the public
     *  quarantine set). */
    LeafId drawGlobalLeaf();

    /** Watchdog-detect permanently dead groups at the access top. */
    void sweepPermanentFaults();
    void runWatchdog(unsigned g);

    /** Degraded disposition of a detected-dead group: quarantine +
     *  evacuate, or -- when it is the last group in service --
     *  zero-survivor FailStop with a distinct ledger entry.
     *  Re-entrant (callable from inside evacuateGroup()). */
    void handleDeadGroup(unsigned g, const std::string &site,
                         unsigned attempts);

    /** Proactive retirement sweep (see IndependentOram). */
    void sweepRetirement();

    /** Per-access mistrust feed + conviction check for @p g (see
     *  IndependentOram::noteUnitSuspicion; the unit here is a whole
     *  Independent group). */
    void noteGroupSuspicion(unsigned g, double blame);

    /** Convict @p g as byzantine: ByzantineConvict ledger episode
     *  paired with recovered (site "mistrust.groupN") + oblivious
     *  group evacuation, or unrecovered (".zero_survivors") +
     *  fail-stop when @p g is the last group in service. */
    void convictGroup(unsigned g);

    /** Oblivious group evacuation: same geometry-padded APPEND-stream
     *  argument as IndependentOram::evacuateSdimm, per group. */
    void evacuateGroup(unsigned g);

    Params params_;
    unsigned localLevels_;
    Rng rng_;
    std::vector<std::unique_ptr<SplitOram>> groups_;
    std::vector<LeafId> posMap_;
    TraceEventFn observer_;
    std::uint64_t appendsReal_ = 0;
    std::uint64_t appendsDummy_ = 0;
    std::uint64_t degradedAccesses_ = 0;
    fault::FaultInjector *injector_ = nullptr;
    fault::DegradationPolicy policy_ =
        fault::DegradationPolicy::RetryThenStop;
    std::vector<bool> quarantinedGroups_;
    bool failedStop_ = false;
    std::uint64_t evacuatedBlocks_ = 0;
    std::uint64_t nestedEvacuations_ = 0;
    std::uint64_t retiredUnits_ = 0;
    std::uint64_t convictedUnits_ = 0;
    unsigned evacuationDepth_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH

/**
 * @file
 * FaultInjector: the single deterministic source of faults and the
 * single ledger of their detection/recovery.
 *
 * Obliviousness contract (docs/FAULTS.md): every roll*() entry point
 * draws from the injector's own Rng exactly once per opportunity
 * (message sent, bucket read, op submitted, entry popped), and the
 * caller must invoke it unconditionally at that site -- never gated
 * on addresses, block contents, or any other secret.  Fault positions
 * are then a pure function of (plan.seed, opportunity index), so the
 * recovery schedule they trigger is data-independent by construction;
 * tests/verify/test_fault_obliviousness.cc runs the resulting traces
 * through the calibrated gate (verify::compareCalibrated), with the
 * plan re-seeded per run and the address region as the secret.
 *
 * One injector instance is shared (raw pointer, not owned) by every
 * component of one system instance.  All hooks are nullable: a
 * component with no injector behaves exactly as before this
 * subsystem existed.
 */

#ifndef SECUREDIMM_FAULT_FAULT_INJECTOR_HH
#define SECUREDIMM_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/fault_types.hh"
#include "util/metrics.hh"
#include "util/rng.hh"

namespace secdimm::fault
{

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    const FaultPlan &plan() const { return plan_; }
    bool enabled() const { return plan_.enabled(); }
    unsigned maxRetries() const { return plan_.maxRetries; }

    /* --- injection rolls (one RNG draw each; see file comment) ---- */

    /** Roll a DRAM read bit flip; true == corrupt this read. */
    bool rollDramBitFlip();

    /** Roll the fate of one sealed link message. */
    WireOutcome rollLinkFault();

    /** Roll an executor stall; returns 0 or plan.stallCycles. */
    std::uint64_t rollExecutorStall();

    /** Roll a TransferQueue entry perturbation on pop. */
    bool rollQueuePerturb();

    /** Flip one uniformly chosen bit of @p bytes (no-op if empty). */
    void corruptBuffer(std::vector<std::uint8_t> &bytes);

    /** Same, over a raw span (e.g. one slot of a batch-read arena). */
    void corruptBuffer(std::uint8_t *bytes, std::size_t len);

    /* --- permanent faults ----------------------------------------- */

    /**
     * Advance the per-access clock.  HardDeath sites whose atAccess
     * has passed become active here (and count as injected, opening a
     * WatchdogTimeout episode the watchdog must close).  Call once at
     * the top of every protocol access.
     */
    void noteAccess();
    std::uint64_t accessIndex() const { return accessIndex_; }

    /** Active StuckAt/HardDeath on @p unit: answers nothing. */
    bool unitDead(unsigned unit) const;

    /** Active DegradedLatency penalty for @p unit (0 when none). */
    std::uint64_t unitLatencyPenalty(unsigned unit) const;

    /**
     * Close the injected->detected pairing for @p unit's permanent
     * fault: exactly one WatchdogTimeout detection per site, recorded
     * when the watchdog exhausts its PROBE budget.  No-op if the unit
     * has no active undetected StuckAt/HardDeath.
     */
    void markPermanentDetected(unsigned unit);

    /* --- byzantine faults ------------------------------------------ */

    /**
     * Any scripted byzantine behavior currently active on @p unit
     * (accessIndex past the entry's fromAccess).  Activity is a pure
     * function of (plan, access index) -- public data, never secrets.
     */
    bool unitByzantine(unsigned unit) const;

    /** Scripted byzantine units in the plan (for metrics/tests). */
    std::uint64_t byzantineUnits() const
    {
        return plan_.byzantineFaults.size();
    }

    /**
     * Roll whether @p unit garbles THIS response.  Draws from the
     * dedicated byzantine RNG stream exactly once per opportunity
     * whenever the unit has an active PersistentCorrupt or
     * DutyCycleLiar script (PersistentCorrupt always lies); returns
     * false without drawing when it has neither.  Records one
     * injected ByzantineCorrupt per lie.
     */
    bool rollByzantineCorrupt(unsigned unit);

    /** Roll whether @p unit drops THIS real APPEND payload after
     *  ACKing it (active LostWrite script only).  Records one
     *  injected ByzantineLostWrite per dropped payload. */
    bool rollByzantineLostWrite(unsigned unit);

    /** Roll whether INDEP-SPLIT group @p unit equivocates on THIS
     *  access (active Equivocate script only).  Records one injected
     *  ByzantineEquivocate per lie. */
    bool rollByzantineEquivocate(unsigned unit);

    /**
     * A LostWrite unit ACKed and dropped @p addr's real APPEND
     * payload.  The entry stands in for the PMMAC freshness state a
     * real deployment keeps CPU-side (per-block counters): the
     * read-back audit deterministically discovers the stale chain,
     * exactly as a counter-mirror mismatch would.
     */
    void noteLostWrite(std::uint64_t addr, unsigned unit);

    /** A fresh real APPEND for @p addr landed somewhere: the pending
     *  lost-write record (if any) is superseded. */
    void clearLostWrite(std::uint64_t addr);

    /**
     * Read-back audit: pending dropped writes for @p addr as
     * (culprit unit, drop count), erasing the record -- each drop is
     * detected exactly once.  nullopt when nothing is pending.
     */
    std::optional<std::pair<unsigned, unsigned>>
    takeLostWrite(std::uint64_t addr);

    /* --- mistrust scoring ------------------------------------------ */

    /** Conviction armed (plan.mistrustConvictThreshold > 0). */
    bool mistrustArmed() const
    {
        return plan_.mistrustConvictThreshold > 0.0;
    }

    /**
     * Feed one access's attributed integrity-failure count for
     * @p unit into its mistrust EWMA (mistrust.unitN.score).  Call
     * once per access per live unit, with 0 for a clean access --
     * honest units decay, liars accrue.  Conviction arms only when
     * plan.mistrustConvictThreshold > 0: the score must then sit
     * above the threshold for plan.mistrustHysteresisAccesses
     * CONSECUTIVE accesses before convictionDue() goes true.
     */
    void noteMistrust(unsigned unit, double failures);

    /** Hysteresis satisfied and the unit not yet convicted. */
    bool convictionDue(unsigned unit) const;

    /** The protocol convicted @p unit: one ByzantineConvict episode
     *  is opened (injected + detected) for the caller to pair with a
     *  recovered (evacuation succeeded) or unrecovered (last
     *  survivor) record, keeping the ledger identity exact. */
    void markConvicted(unsigned unit);

    bool unitConvicted(unsigned unit) const;
    double mistrustScore(unsigned unit) const;
    std::uint64_t convictedUnits() const { return convictedUnits_; }

    /* --- proactive retirement -------------------------------------- */

    /**
     * Feed one access's latency tax (cycles of DegradedLatency
     * penalty charged on @p unit) into the unit's EWMA tracker.
     * Retirement arms only when plan.retireTaxThresholdCycles > 0:
     * the EWMA must then sit above the threshold for
     * plan.retireHysteresisAccesses CONSECUTIVE accesses before
     * retirementDue() goes true.  Call once per access per live unit.
     */
    void noteUnitTax(unsigned unit, std::uint64_t cycles);

    /** Hysteresis satisfied and the unit not yet retired. */
    bool retirementDue(unsigned unit) const;

    /** The protocol evacuated @p unit proactively (ledger-neutral:
     *  a timing tax is not a detected fault). */
    void markRetired(unsigned unit);

    bool unitRetired(unsigned unit) const;
    double unitTaxEwma(unsigned unit) const;
    std::uint64_t retiredUnits() const { return retiredUnits_; }
    std::uint64_t retireCandidates() const { return retireCandidates_; }

    /* --- correlated campaign introspection ------------------------- */

    std::uint64_t correlatedGroups() const { return correlatedGroups_; }
    std::uint64_t correlatedUnits() const { return correlatedUnits_; }
    /** Correlated permanent sites that have gone active so far. */
    std::uint64_t correlatedActivations() const
    {
        return correlatedActivations_;
    }

    /* --- accounting ----------------------------------------------- */

    void recordDetected(FaultKind k);
    void recordRecovered(FaultKind k, const std::string &site,
                         unsigned attempts);
    void recordUnrecovered(FaultKind k, const std::string &site,
                           unsigned attempts);
    void recordDegraded();

    /** One watchdog PROBE issued; @p backoff_cycles waited after it. */
    void recordWatchdogProbe(std::uint64_t backoff_cycles);
    /** One unit quarantined (SDIMM or group; monotone counter). */
    void recordQuarantine();
    /** Quarantining would leave zero survivors: the system fell back
     *  to FailStop instead of dummy-padding an evacuation into
     *  nothing.  Distinct ledger entry (see docs/FAULTS.md). */
    void recordZeroSurvivorFailStop();
    std::uint64_t zeroSurvivorFailStops() const
    {
        return zeroSurvivorStops_;
    }
    /** One completed evacuation: @p blocks live blocks drained via
     *  @p appends dummy-padded APPENDs. */
    void recordEvacuation(std::uint64_t blocks, std::uint64_t appends);
    /** Timing layer: cycles lost to a DegradedLatency unit. */
    void addDegradedLatencyCycles(std::uint64_t cycles);
    /** Timing layer: cycles spent on backoff waits and evacuation. */
    void addRecoveryCycles(std::uint64_t cycles);

    std::uint64_t watchdogProbes() const { return watchdogProbes_; }
    std::uint64_t watchdogBackoffCycles() const { return watchdogWait_; }
    std::uint64_t quarantinedUnits() const { return quarantined_; }
    std::uint64_t evacuatedBlocks() const { return evacuatedBlocks_; }
    std::uint64_t evacuationAppends() const { return evacAppends_; }
    std::uint64_t degradedLatencyCycles() const { return degradedCycles_; }
    std::uint64_t recoveryCycles() const { return recoveryCycles_; }

    std::uint64_t injected(FaultKind k) const;
    std::uint64_t detected(FaultKind k) const;
    std::uint64_t recovered(FaultKind k) const;
    std::uint64_t unrecoveredTotal() const { return unrecoveredTotal_; }
    std::uint64_t injectedTotal() const;
    std::uint64_t detectedTotal() const;
    std::uint64_t recoveredTotal() const;
    std::uint64_t degradedAccesses() const { return degraded_; }

    /** Bounded log of resolved fault events (oldest dropped first). */
    const std::vector<FaultEvent> &events() const { return events_; }

    /** Export under @p prefix (default namespace is "fault"). */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix = "fault") const;

  private:
    void recordInjected(FaultKind k);
    void logEvent(FaultKind k, const std::string &site, unsigned attempts,
                  bool recoveredFlag);

    /** One scripted permanent fault and its activation/detection
     *  state; the ledger sees exactly one injected and at most one
     *  detected WatchdogTimeout per StuckAt/HardDeath entry.
     *  Correlated-group members expand into one entry each, tagged so
     *  activations can be counted per campaign. */
    struct PermanentState {
        PermanentFault fault;
        bool active = false;
        bool watchdogDetected = false;
        bool correlated = false;
    };

    /** Per-unit EWMA + hysteresis of one per-access quantity:
     *  latency cycles for retirement, attributed integrity failures
     *  for conviction; done once the protocol acted on it. */
    struct UnitTracker {
        double ewma = 0.0;
        /** Lifetime sum: the evidence floor reads this, so a couple
         *  of unluckily adjacent transients can never convict no
         *  matter how the EWMA streak lands. */
        double total = 0.0;
        unsigned aboveStreak = 0;
        bool candidate = false;
        bool done = false;

        /** Feed one access's @p sample.  While @p threshold > 0 and
         *  not done, the unit becomes a candidate after @p hysteresis
         *  CONSECUTIVE samples with the EWMA above @p threshold and
         *  the total at least @p min_total; true when this one did. */
        bool note(double sample, double alpha, double threshold,
                  double min_total, unsigned hysteresis);

        bool due() const { return candidate && !done; }
    };

    /** @p unit's tracker in @p trackers, or an idle one. */
    static const UnitTracker &
    trackerOf(const std::map<unsigned, UnitTracker> &trackers,
              unsigned unit);

    /** Active byzantine script of @p kind on @p unit, or nullptr. */
    const ByzantineFault *activeByzantine(unsigned unit,
                                          ByzantineFaultKind kind) const;

    FaultPlan plan_;
    Rng rng_;
    /** Dedicated stream for byzantine duty-cycle draws: arming a liar
     *  must not shift the transient-fault stream positions. */
    Rng byzRng_;
    std::vector<PermanentState> permanent_;
    std::map<unsigned, UnitTracker> retire_;
    std::map<unsigned, UnitTracker> mistrust_;
    /** Pending dropped-write ground truth: addr -> (culprit unit,
     *  drop count).  See noteLostWrite(). */
    std::map<std::uint64_t, std::pair<unsigned, unsigned>> lostWrites_;
    std::uint64_t convictedUnits_ = 0;
    std::uint64_t mistrustCandidates_ = 0;
    std::uint64_t accessIndex_ = 0;
    std::uint64_t correlatedGroups_ = 0;
    std::uint64_t correlatedUnits_ = 0;
    std::uint64_t correlatedActivations_ = 0;
    std::uint64_t zeroSurvivorStops_ = 0;
    std::uint64_t retiredUnits_ = 0;
    std::uint64_t retireCandidates_ = 0;
    std::uint64_t watchdogProbes_ = 0;
    std::uint64_t watchdogWait_ = 0;
    std::uint64_t quarantined_ = 0;
    std::uint64_t evacuatedBlocks_ = 0;
    std::uint64_t evacAppends_ = 0;
    std::uint64_t degradedCycles_ = 0;
    std::uint64_t recoveryCycles_ = 0;
    std::array<std::uint64_t, kNumFaultKinds> injected_{};
    std::array<std::uint64_t, kNumFaultKinds> detected_{};
    std::array<std::uint64_t, kNumFaultKinds> recovered_{};
    std::uint64_t unrecoveredTotal_ = 0;
    std::uint64_t degraded_ = 0;
    util::LogHistogram retryCounts_;
    util::LogHistogram recoveryLatency_;
    std::vector<FaultEvent> events_;
};

} // namespace secdimm::fault

#endif // SECUREDIMM_FAULT_FAULT_INJECTOR_HH

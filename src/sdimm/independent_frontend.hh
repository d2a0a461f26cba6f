/**
 * @file
 * The CPU frontend of the Independent protocol (Section III-C), shared
 * by the two designs that run it: SDIMM Independent, whose units are
 * single SDIMMs, and INDEP-SPLIT (Figure 7e), whose units are Split
 * groups.  The frontend owns the global PosMap -- the top leaf bits
 * name a unit, the low bits a leaf inside that unit's tree -- and
 * every policy that acts on whole units: the quarantine set and the
 * survivor-aware leaf draw, the exhausted-budget ladder, the watchdog
 * and retirement sweeps, mistrust conviction, and the re-entrant,
 * dummy-padded evacuation sweep (docs/FAULTS.md).
 *
 * It also owns the access itself: every access, whatever its exit,
 * ends in exactly one APPEND broadcast -- one slot per unit, real only
 * at the moved block's destination -- through the same routine the
 * evacuation sweep uses.  An engine derives from it and supplies only
 * its wire steps: fetch a block from its source unit, pad a lost
 * access, deliver or pad one APPEND slot, read a dead unit's resident
 * blocks, and send a PROBE.
 */

#ifndef SECUREDIMM_SDIMM_INDEPENDENT_FRONTEND_HH
#define SECUREDIMM_SDIMM_INDEPENDENT_FRONTEND_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_types.hh"
#include "oram/oram_engine.hh"
#include "oram/stash.hh"
#include "util/rng.hh"

namespace secdimm::sdimm
{

/** Independent-protocol CPU frontend over power-of-two many units. */
class IndependentFrontend : public oram::OramEngine
{
  public:
    /** Total data capacity in blocks. */
    std::uint64_t capacityBlocks() const
    {
        return static_cast<std::uint64_t>(units_) * unitCapacity_;
    }

    /**
     * accessORAM against the distributed tree (Section III-C): run the
     * fault sweeps, remap @p addr, fetch the block from its source
     * unit, then broadcast one APPEND per unit (real only at the
     * destination, and only when the block moved).  A stopped
     * protocol, a quarantined source or a fetch that lost the block
     * pads the ACCESS, broadcasts all-dummy APPENDs and serves zeros.
     */
    BlockData access(Addr addr, oram::OramOp op,
                     const BlockData *new_data = nullptr) override;

    /** Current global leaf of a block. */
    LeafId leafOf(Addr addr) const { return posMap_.at(addr); }

    /** Remove @p unit from service (Degraded policy); no evacuation. */
    void quarantine(unsigned unit);
    bool isQuarantined(unsigned unit) const
    {
        return unit < quarantined_.size() && quarantined_[unit];
    }
    unsigned quarantinedCount() const;

    /** True once an unrecoverable fault stopped the protocol. */
    bool failedStop() const { return failedStop_; }

    /** Live blocks drained off quarantined units so far. */
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
     * Global placement audit.  @p resident[u] lists the blocks found in
     * unit u, each with its unit-local leaf; quarantined units are
     * skipped (they keep stale copies of evacuated blocks).  A block
     * must be resident in exactly one unit in service -- the unit the
     * PosMap's top leaf bits name -- at the local leaf its low bits
     * name.  Returns one description per violation; @p checks_run, if
     * given, is incremented per check performed.
     */
    std::vector<std::string>
    auditPlacement(const std::vector<std::vector<oram::StashEntry>> &resident,
                   std::uint64_t *checks_run = nullptr) const;

  protected:
    /**
     * @p unit_kind names a unit in ledger sites ("watchdog.<kind>N");
     * @p quarantined_metric is the counter exportFleetMetrics() reports
     * the quarantine size under.  The engine builds its units and then
     * calls fillPositionMap().
     */
    IndependentFrontend(const char *unit_kind,
                        const char *quarantined_metric, unsigned units,
                        const oram::OramParams &unit_tree,
                        std::uint64_t seed);

    /** One leaf draw per block, in address order. */
    void fillPositionMap();

    /** Store the injector and policy and bring every unit back. */
    void armFrontend(fault::FaultInjector *inj,
                     fault::DegradationPolicy policy);

    /**
     * The exhausted-budget ladder for a transient @p kind fault on
     * @p unit: fail-stop, or zero-survivor fail-stop, or quarantine
     * plus evacuation.  The detection closes as unrecovered.
     */
    void onUnrecoverable(fault::FaultKind kind, unsigned unit,
                         const std::string &site, unsigned attempts)
    {
        quarantineOrStop(kind, unit, site, attempts, false);
    }

    /**
     * Preemption-conviction: a persistent corruptor exhausts the retry
     * budget on its very first access, long before the EWMA hysteresis
     * can run out.  When mistrust is armed under Degraded and @p unit
     * is not the last in service, close the final detection as
     * recovered at "<site>.convict" -- the conviction IS the recovery
     * -- convict the unit, and return true so the caller keeps the
     * in-flight block.  Returns false (and does nothing) otherwise.
     */
    bool preemptConviction(unsigned unit, fault::FaultKind kind,
                           const std::string &site, unsigned attempts);

    /**
     * Feed one access's attributed integrity-failure count for @p unit
     * into the injector's mistrust EWMA and convict the unit if its
     * score has sat above the threshold long enough (hysteresis).  The
     * CPU cannot tell a lying unit from a noisy link, so EVERY failure
     * blames the unit; the threshold separates transient noise
     * (decays) from adversarial behaviour (accrues).
     */
    void noteUnitSuspicion(unsigned unit, double blame);

    /** Degraded-access, quarantine, evacuation, retirement and
     *  conviction counters under @p prefix. */
    void exportFleetMetrics(util::MetricsRegistry &m,
                            const std::string &prefix) const;

    /**
     * Wire step: the ACCESS of @p addr to the in-service @p unit, at
     * unit-local leaf @p old_local, with its retries, read-back audit
     * and mistrust feed.  The unit keeps the block at @p new_local, or
     * hands it back for the broadcast when that is invalidLeaf.
     * Returns the value the access serves, or nothing when the block
     * was lost.  May quarantine units or fail-stop the protocol.
     */
    virtual std::optional<BlockData>
    fetch(unsigned unit, Addr addr, LeafId old_local, LeafId new_local,
          oram::OramOp op, const BlockData *new_data) = 0;

    /** Wire step: the ACCESS-side bus shape of an access that cannot
     *  reach @p unit (nothing is delivered). */
    virtual void padAccess(unsigned unit) = 0;

    /** Wire step: one watchdog PROBE to @p unit. */
    virtual void sendProbe(unsigned unit) = 0;

    /**
     * Wire step: maintenance-path read of every live block of the
     * (quarantined) @p unit.  The unit's protocol engine may be dead,
     * but its raw storage is still readable (docs/FAULTS.md).
     */
    virtual std::vector<oram::StashEntry> residentBlocks(unsigned unit) = 0;

    /**
     * Wire step: one APPEND slot to the in-service @p unit,
     * carrying @p real (leaf is unit-local) or, when null, a dummy.
     * Returns true when the unit accepted the slot.  May quarantine
     * units through onUnrecoverable().
     */
    virtual bool appendSlot(unsigned unit, const oram::StashEntry *real) = 0;

    /** Wire step: the placeholder APPEND of an out-of-service unit
     *  (keeps the channel shape; nothing is delivered). */
    virtual void padAppend(unsigned unit) = 0;

    Rng rng_;
    fault::FaultInjector *injector_ = nullptr;
    bool failedStop_ = false;

  private:
    unsigned unitOf(LeafId global_leaf) const
    {
        return static_cast<unsigned>(global_leaf >> localLevels_);
    }
    LeafId localLeaf(LeafId global_leaf) const
    {
        return global_leaf & ((LeafId{1} << localLevels_) - 1);
    }

    /** Draw a global leaf whose unit is not quarantined. */
    LeafId drawGlobalLeaf();

    /** "<what>.<unit kind><unit>", e.g. "watchdog.sdimm3". */
    std::string unitSite(const char *what, unsigned unit) const;

    /**
     * The one disposition ladder.  Outside Degraded: fail-stop.  When
     * @p unit is the last one in service there is nowhere to evacuate
     * to: a distinct ".zero_survivors" unrecovered entry and fail-stop
     * instead of dummy-padding an APPEND stream into nothing.
     * Otherwise quarantine and evacuate, closing the detection as
     * recovered when @p recovers (watchdog, conviction) and as
     * unrecovered when not (an in-flight transient was lost).
     * Re-entrant: safe to call from inside evacuate().
     */
    void quarantineOrStop(fault::FaultKind kind, unsigned unit,
                          const std::string &site, unsigned attempts,
                          bool recovers);

    /**
     * Detect permanent faults that activated since the last access:
     * the watchdog runs against every newly dead unit, which is then
     * quarantined and evacuated (Degraded) or fail-stops the protocol.
     * Then the retirement sweep.
     */
    void sweepPermanentFaults();

    /** PROBE @p unit watchdogMaxProbes times with capped exponential
     *  backoff; closes the WatchdogTimeout detection for the unit. */
    void runWatchdog(unsigned unit);

    /**
     * Proactive retirement: feed each live unit's latency tax into the
     * injector's EWMA and obliviously evacuate a unit whose tax stayed
     * above plan.retireTaxThresholdCycles long enough, before it
     * hard-dies.  The last unit in service is never retired.  No
     * ledger event: a timing tax is not a fault.
     */
    void sweepRetirement();

    /** ByzantineConvict episode for @p unit, closed through the
     *  ladder at site "mistrust.<kind>N". */
    void convictUnit(unsigned unit);

    /**
     * Oblivious evacuation of the quarantined @p unit: drain its live
     * blocks, silently remap them off it in the CPU-private PosMap,
     * and re-append them to survivors under max(unit capacity, live
     * count) dummy-padded APPEND slots per unit -- a count that
     * depends only on tree geometry and the public leaf randomness,
     * never on block contents.
     */
    void evacuate(unsigned unit);

    /**
     * The one APPEND broadcast: one slot to every unit, in unit order,
     * carrying @p block to the unit its PosMap entry names or, when
     * null, all dummies.  Out-of-service units get padAppend().  The
     * entry is re-read per unit (the block's own leaf is ignored): a
     * conviction or budget exhaustion during the access, or inside
     * this sweep, may have evacuated the planned destination, and the
     * real APPEND must follow the block.  The slot is re-run while the
     * quarantine set changes under it, so a destination redrawn onto a
     * unit the sweep already passed still receives the block.
     */
    void broadcastAppend(const oram::StashEntry *block);

    std::vector<LeafId> posMap_;
    fault::DegradationPolicy policy_ =
        fault::DegradationPolicy::RetryThenStop;
    const char *unitKind_;
    const char *quarantinedMetric_;
    unsigned units_;
    unsigned localLevels_;
    std::uint64_t globalLeaves_;
    std::uint64_t unitCapacity_;
    std::vector<bool> quarantined_;
    std::uint64_t evacuatedBlocks_ = 0;
    std::uint64_t nestedEvacuations_ = 0;
    std::uint64_t retiredUnits_ = 0;
    std::uint64_t convictedUnits_ = 0;
    std::uint64_t degradedAccesses_ = 0;
    unsigned evacuationDepth_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEPENDENT_FRONTEND_HH

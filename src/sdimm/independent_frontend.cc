#include "sdimm/independent_frontend.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace secdimm::sdimm
{

IndependentFrontend::IndependentFrontend(const char *unit_kind,
                                         const char *quarantined_metric,
                                         unsigned units,
                                         const oram::OramParams &unit_tree,
                                         std::uint64_t seed)
    : rng_(seed),
      unitKind_(unit_kind),
      quarantinedMetric_(quarantined_metric),
      units_(units),
      localLevels_(unit_tree.levels),
      globalLeaves_(static_cast<std::uint64_t>(units) *
                    unit_tree.numLeaves()),
      unitCapacity_(unit_tree.capacityBlocks()),
      quarantined_(units, false)
{
    SD_ASSERT(isPowerOfTwo(units_));
}

void
IndependentFrontend::fillPositionMap()
{
    posMap_.resize(capacityBlocks());
    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(globalLeaves_);
}

void
IndependentFrontend::armFrontend(fault::FaultInjector *inj,
                                 fault::DegradationPolicy policy)
{
    injector_ = inj;
    policy_ = policy;
    quarantined_.assign(units_, false);
}

void
IndependentFrontend::quarantine(unsigned unit)
{
    SD_ASSERT(unit < units_);
    if (!quarantined_[unit] && injector_)
        injector_->recordQuarantine();
    quarantined_[unit] = true;
}

unsigned
IndependentFrontend::quarantinedCount() const
{
    return static_cast<unsigned>(
        std::count(quarantined_.begin(), quarantined_.end(), true));
}

LeafId
IndependentFrontend::drawGlobalLeaf()
{
    // One draw in the common case; redraws only consult the (public)
    // quarantine set, never data, so the draw count stays
    // data-independent.  At least one unit is always in service.
    LeafId leaf;
    do {
        leaf = rng_.nextBelow(globalLeaves_);
    } while (isQuarantined(unitOf(leaf)) && quarantinedCount() < units_);
    return leaf;
}

BlockData
IndependentFrontend::access(Addr addr, oram::OramOp op,
                            const BlockData *new_data)
{
    const bool write = op == oram::OramOp::Write;
    SD_ASSERT(!write || new_data != nullptr);
    SD_ASSERT(addr < posMap_.size());
    // Permanent faults surface here: the watchdog notices a silent
    // unit before the PosMap lookup, so a quarantine's remaps are
    // already in place when the leaf below is read.
    if (injector_) {
        injector_->noteAccess();
        sweepPermanentFaults();
    }
    const LeafId old_leaf = posMap_[addr];
    const LeafId new_leaf = drawGlobalLeaf();
    posMap_[addr] = new_leaf;
    const unsigned src = unitOf(old_leaf);
    const bool stays = src == unitOf(new_leaf);

    // A stopped protocol or a quarantined source unit still walks the
    // full message schedule (the adversary must not learn which blocks
    // were lost), but the data itself is gone.
    std::optional<BlockData> old;
    if (failedStop_ || isQuarantined(src))
        padAccess(src);
    else
        old = fetch(src, addr, localLeaf(old_leaf),
                    stays ? localLeaf(new_leaf) : invalidLeaf, op,
                    new_data);
    if (!old) {
        ++degradedAccesses_;
        if (injector_)
            injector_->recordDegraded();
        broadcastAppend(nullptr);
        return BlockData{};
    }

    // Step 6: the relocation rides the one broadcast, real only when
    // the block left its source unit.
    const oram::StashEntry moved{addr, invalidLeaf,
                                 write ? *new_data : *old};
    broadcastAppend(stays ? nullptr : &moved);
    return *old;
}

std::string
IndependentFrontend::unitSite(const char *what, unsigned unit) const
{
    return std::string(what) + "." + unitKind_ + std::to_string(unit);
}

void
IndependentFrontend::quarantineOrStop(fault::FaultKind kind, unsigned unit,
                                      const std::string &site,
                                      unsigned attempts, bool recovers)
{
    if (policy_ != fault::DegradationPolicy::Degraded) {
        injector_->recordUnrecovered(kind, site, attempts);
        failedStop_ = true;
        return;
    }
    const bool was = isQuarantined(unit);
    if (!was && quarantinedCount() + 1 >= units_) {
        // The detection is closed here either way, so the identity
        // detected == recovered + unrecovered still holds exactly.
        injector_->recordUnrecovered(kind, site + ".zero_survivors",
                                     attempts);
        injector_->recordZeroSurvivorFailStop();
        quarantine(unit);
        failedStop_ = true;
        return;
    }
    if (recovers)
        injector_->recordRecovered(kind, site, attempts);
    else
        injector_->recordUnrecovered(kind, site, attempts);
    quarantine(unit);
    if (!was)
        evacuate(unit);
}

void
IndependentFrontend::runWatchdog(unsigned unit)
{
    const fault::FaultPlan &plan = injector_->plan();
    for (unsigned p = 0; p < plan.watchdogMaxProbes; ++p) {
        sendProbe(unit);
        injector_->recordWatchdogProbe(plan.watchdogBackoff(p));
    }
    injector_->markPermanentDetected(unit);
}

void
IndependentFrontend::sweepPermanentFaults()
{
    for (unsigned i = 0; i < units_; ++i) {
        if (failedStop_)
            return;
        if (isQuarantined(i) || !injector_->unitDead(i))
            continue;
        runWatchdog(i);
        quarantineOrStop(fault::FaultKind::WatchdogTimeout, i,
                         unitSite("watchdog", i),
                         injector_->plan().watchdogMaxProbes, true);
    }
    sweepRetirement();
}

void
IndependentFrontend::sweepRetirement()
{
    if (failedStop_ || injector_->plan().retireTaxThresholdCycles == 0)
        return;
    for (unsigned i = 0; i < units_; ++i) {
        if (!isQuarantined(i))
            injector_->noteUnitTax(i, injector_->unitLatencyPenalty(i));
    }
    if (policy_ != fault::DegradationPolicy::Degraded)
        return;
    for (unsigned i = 0; i < units_; ++i) {
        if (isQuarantined(i) || !injector_->retirementDue(i))
            continue;
        if (quarantinedCount() + 1 >= units_)
            continue; // never retire the last unit in service
        injector_->markRetired(i);
        ++retiredUnits_;
        quarantine(i);
        evacuate(i);
    }
}

bool
IndependentFrontend::preemptConviction(unsigned unit, fault::FaultKind kind,
                                       const std::string &site,
                                       unsigned attempts)
{
    if (!injector_->mistrustArmed() ||
        policy_ != fault::DegradationPolicy::Degraded ||
        isQuarantined(unit) || quarantinedCount() + 1 >= units_)
        return false;
    injector_->recordRecovered(kind, site + ".convict", attempts);
    convictUnit(unit);
    return true;
}

void
IndependentFrontend::noteUnitSuspicion(unsigned unit, double blame)
{
    if (!injector_)
        return;
    injector_->noteMistrust(unit, blame);
    if (!injector_->mistrustArmed() ||
        policy_ != fault::DegradationPolicy::Degraded)
        return;
    if (failedStop_ || isQuarantined(unit))
        return;
    if (injector_->convictionDue(unit))
        convictUnit(unit);
}

void
IndependentFrontend::convictUnit(unsigned unit)
{
    injector_->markConvicted(unit);
    ++convictedUnits_;
    quarantineOrStop(fault::FaultKind::ByzantineConvict, unit,
                     unitSite("mistrust", unit), 0, true);
}

void
IndependentFrontend::evacuate(unsigned unit)
{
    const std::vector<oram::StashEntry> live = residentBlocks(unit);

    // PosMap remaps are CPU-private: every address routed at the dead
    // unit is silently redrawn among the survivors before any wire
    // traffic, so the APPEND destinations below look like any other
    // relocation.
    for (LeafId &leaf : posMap_) {
        if (unitOf(leaf) == unit)
            leaf = drawGlobalLeaf();
    }

    // The slot count is the per-unit tree capacity (public geometry),
    // padded up only when more than that is live -- and the live count
    // is a function of the public leaf randomness, never of contents.
    const std::uint64_t slots =
        std::max<std::uint64_t>(unitCapacity_, live.size());
    ++evacuationDepth_;
    SD_ASSERT(evacuationDepth_ <= units_);
    for (std::uint64_t s = 0; s < slots; ++s)
        broadcastAppend(s < live.size() ? &live[s] : nullptr);
    --evacuationDepth_;
    evacuatedBlocks_ += live.size();
    injector_->recordEvacuation(live.size(), slots * units_);
}

void
IndependentFrontend::broadcastAppend(const oram::StashEntry *block)
{
    bool placed = false;
    bool redo = true;
    while (redo) {
        const unsigned quarantinedBefore = quarantinedCount();
        for (unsigned i = 0; i < units_; ++i) {
            /*
             * Re-entrant recovery: a correlated cascade can surface a
             * SECOND death while an evacuation is mid-stream.  The
             * watchdog fires here, the new corpse is quarantined, and
             * its evacuation nests inside this one (the unit is
             * quarantined before the recursion, so the depth is
             * bounded by the unit count).  Blocks already re-appended
             * onto the newly dead unit are drained by the nested pass;
             * a pending block re-reads posMap_ below, so it routes
             * around it.  Deaths activate only in noteAccess(), whose
             * sweep has quarantined every dead unit before an access
             * broadcasts, so this fires only inside evacuations.
             */
            if (injector_ && !failedStop_ && !isQuarantined(i) &&
                injector_->unitDead(i)) {
                ++nestedEvacuations_;
                runWatchdog(i);
                quarantineOrStop(fault::FaultKind::WatchdogTimeout, i,
                                 unitSite("watchdog", i) + ".mid_evac",
                                 injector_->plan().watchdogMaxProbes,
                                 true);
            }
            if (failedStop_ || isQuarantined(i)) {
                padAppend(i);
                continue;
            }
            oram::StashEntry slot;
            const oram::StashEntry *real = nullptr;
            if (block && !placed && unitOf(posMap_[block->addr]) == i) {
                slot = {block->addr, localLeaf(posMap_[block->addr]),
                        block->data};
                real = &slot;
            }
            if (appendSlot(i, real) && real)
                placed = true;
        }
        /*
         * A nested evacuation (or a budget-exhaustion quarantine inside
         * appendSlot) can redraw the block's destination onto a unit
         * the sweep above had ALREADY passed, silently dropping it.
         * Whenever the quarantine set changed mid-sweep -- a public,
         * fault-triggered event -- re-run the slot: an unplaced block
         * lands on its redrawn survivor, and a placed one rides the
         * re-run as all-dummy padding, indistinguishable on the wire.
         */
        redo = !failedStop_ && quarantinedCount() != quarantinedBefore;
    }
}

void
IndependentFrontend::exportFleetMetrics(util::MetricsRegistry &m,
                                        const std::string &prefix) const
{
    m.setCounter(prefix + ".degraded_accesses", degradedAccesses_);
    m.setCounter(prefix + "." + quarantinedMetric_, quarantinedCount());
    m.setCounter(prefix + ".evacuated_blocks", evacuatedBlocks_);
    if (nestedEvacuations_)
        m.setCounter(prefix + ".nested_evacuations", nestedEvacuations_);
    if (retiredUnits_)
        m.setCounter(prefix + ".retired_units", retiredUnits_);
    if (convictedUnits_)
        m.setCounter(prefix + ".convicted_units", convictedUnits_);
}

std::vector<std::string>
IndependentFrontend::auditPlacement(
    const std::vector<std::vector<oram::StashEntry>> &resident,
    std::uint64_t *checks_run) const
{
    std::vector<std::string> violations;
    const auto check = [&](bool ok, auto &&describe) {
        if (checks_run)
            ++*checks_run;
        if (!ok)
            violations.push_back(describe());
    };
    std::unordered_set<Addr> seen;
    for (unsigned u = 0; u < units_ && u < resident.size(); ++u) {
        if (isQuarantined(u))
            continue;
        for (const oram::StashEntry &e : resident[u]) {
            check(seen.insert(e.addr).second, [&] {
                std::ostringstream os;
                os << "block " << e.addr << " resident in two "
                   << unitKind_ << "s";
                return os.str();
            });
            const bool mapped = e.addr < posMap_.size();
            const LeafId global = mapped ? posMap_[e.addr] : invalidLeaf;
            check(mapped && unitOf(global) == u &&
                      localLeaf(global) == e.leaf,
                  [&] {
                      std::ostringstream os;
                      os << "block " << e.addr << " at " << unitKind_
                         << " " << u << " leaf " << e.leaf;
                      if (mapped)
                          os << ", PosMap says " << unitKind_ << " "
                             << unitOf(global) << " leaf "
                             << localLeaf(global);
                      else
                          os << ", address out of range";
                      return os.str();
                  });
        }
    }
    return violations;
}

} // namespace secdimm::sdimm

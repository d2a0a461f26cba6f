#include "sdimm/indep_split_oram.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

IndepSplitOram::IndepSplitOram(const Params &params, std::uint64_t seed)
    : params_(params),
      localLevels_(params.perGroupTree.levels),
      rng_(seed)
{
    SD_ASSERT(isPowerOfTwo(params_.groups));
    for (unsigned g = 0; g < params_.groups; ++g) {
        SplitOram::Params sp;
        sp.tree = params_.perGroupTree;
        sp.slices = params_.slicesPerGroup;
        groups_.push_back(
            std::make_unique<SplitOram>(sp, seed * 2654435761u + g));
    }
    const std::uint64_t global_leaves =
        static_cast<std::uint64_t>(params_.groups) *
        params_.perGroupTree.numLeaves();
    posMap_.resize(capacityBlocks());
    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(global_leaves);
}

std::uint64_t
IndepSplitOram::capacityBlocks() const
{
    return static_cast<std::uint64_t>(params_.groups) *
           params_.perGroupTree.capacityBlocks();
}

unsigned
IndepSplitOram::groupOf(LeafId global_leaf) const
{
    return static_cast<unsigned>(global_leaf >> localLevels_);
}

LeafId
IndepSplitOram::localLeaf(LeafId global_leaf) const
{
    return global_leaf & ((LeafId{1} << localLevels_) - 1);
}

void
IndepSplitOram::setFaultInjector(fault::FaultInjector *inj,
                                 fault::DegradationPolicy policy)
{
    injector_ = inj;
    policy_ = policy;
    quarantinedGroups_.assign(params_.groups, false);
    for (auto &g : groups_)
        g->setFaultInjector(inj);
}

void
IndepSplitOram::quarantineGroup(unsigned g)
{
    if (quarantinedGroups_.empty())
        quarantinedGroups_.assign(params_.groups, false);
    SD_ASSERT(g < quarantinedGroups_.size());
    if (!quarantinedGroups_[g] && injector_)
        injector_->recordQuarantine();
    quarantinedGroups_[g] = true;
}

unsigned
IndepSplitOram::quarantinedGroupCount() const
{
    unsigned n = 0;
    for (const bool q : quarantinedGroups_)
        n += q ? 1 : 0;
    return n;
}

LeafId
IndepSplitOram::drawGlobalLeaf()
{
    const std::uint64_t global_leaves =
        static_cast<std::uint64_t>(params_.groups) *
        params_.perGroupTree.numLeaves();
    // One draw in the common case; redraws only consult the (public)
    // quarantine set, never data, so the draw count stays
    // data-independent.
    LeafId leaf;
    do {
        leaf = rng_.nextBelow(global_leaves);
    } while (isGroupQuarantined(groupOf(leaf)) &&
             quarantinedGroupCount() < params_.groups);
    return leaf;
}

bool
IndepSplitOram::transmitGroupCommand(SdimmCommandType type, unsigned g,
                                     const char *site)
{
    recordBus(type, g);
    if (!injector_)
        return true;
    unsigned attempts = 0;
    for (;;) {
        const fault::WireOutcome w = injector_->rollLinkFault();
        if (w == fault::WireOutcome::Delivered)
            return true;
        if (w == fault::WireOutcome::Delayed) {
            // Absorbed by the CPU frontend's polling loop.
            injector_->recordDetected(fault::FaultKind::LinkDelay);
            injector_->recordRecovered(fault::FaultKind::LinkDelay,
                                       site, 1);
            return true;
        }
        const fault::FaultKind kind = w == fault::WireOutcome::Corrupted
                                          ? fault::FaultKind::LinkCorrupt
                                          : fault::FaultKind::LinkDrop;
        injector_->recordDetected(kind);
        if (attempts >= injector_->maxRetries()) {
            if (policy_ != fault::DegradationPolicy::Degraded) {
                injector_->recordUnrecovered(kind, site, attempts);
                failedStop_ = true;
                return false;
            }
            // Group fail-over: quarantine the whole group and drain
            // its blocks to the survivors -- unless this group IS the
            // last survivor, in which case there is nowhere to
            // evacuate to and the system fail-stops with a distinct
            // zero-survivor ledger entry.
            const bool was = isGroupQuarantined(g);
            if (!was && quarantinedGroupCount() + 1 >= params_.groups) {
                injector_->recordUnrecovered(
                    kind, std::string(site) + ".zero_survivors",
                    attempts);
                injector_->recordZeroSurvivorFailStop();
                quarantineGroup(g);
                failedStop_ = true;
                return false;
            }
            injector_->recordUnrecovered(kind, site, attempts);
            quarantineGroup(g);
            if (!was)
                evacuateGroup(g);
            return false;
        }
        ++attempts;
        injector_->recordRecovered(kind, site, 1);
        recordBus(type, g); // The retransmission.
    }
}

void
IndepSplitOram::runWatchdog(unsigned g)
{
    const fault::FaultPlan &plan = injector_->plan();
    for (unsigned p = 0; p < plan.watchdogMaxProbes; ++p) {
        recordBus(SdimmCommandType::Probe, g);
        injector_->recordWatchdogProbe(plan.watchdogBackoff(p));
    }
    injector_->markPermanentDetected(g);
}

void
IndepSplitOram::handleDeadGroup(unsigned g, const std::string &site,
                                unsigned attempts)
{
    if (policy_ != fault::DegradationPolicy::Degraded) {
        injector_->recordUnrecovered(fault::FaultKind::WatchdogTimeout,
                                     site, attempts);
        failedStop_ = true;
        return;
    }
    if (quarantinedGroupCount() + 1 >= params_.groups) {
        // Zero survivors after this quarantine: distinct ledger entry
        // + FailStop (detected == recovered + unrecovered still holds
        // exactly; the watchdog already closed the detection).
        injector_->recordUnrecovered(fault::FaultKind::WatchdogTimeout,
                                     site + ".zero_survivors", attempts);
        injector_->recordZeroSurvivorFailStop();
        quarantineGroup(g);
        failedStop_ = true;
        return;
    }
    injector_->recordRecovered(fault::FaultKind::WatchdogTimeout, site,
                               attempts);
    quarantineGroup(g);
    evacuateGroup(g);
}

void
IndepSplitOram::sweepPermanentFaults()
{
    for (unsigned g = 0; g < params_.groups; ++g) {
        if (failedStop_)
            return;
        if (isGroupQuarantined(g) || !injector_->unitDead(g))
            continue;
        runWatchdog(g);
        handleDeadGroup(g, "watchdog.group" + std::to_string(g),
                        injector_->plan().watchdogMaxProbes);
    }
    sweepRetirement();
}

void
IndepSplitOram::sweepRetirement()
{
    if (failedStop_ || injector_->plan().retireTaxThresholdCycles == 0)
        return;
    for (unsigned g = 0; g < params_.groups; ++g) {
        if (!isGroupQuarantined(g))
            injector_->noteUnitTax(g, injector_->unitLatencyPenalty(g));
    }
    if (policy_ != fault::DegradationPolicy::Degraded)
        return;
    for (unsigned g = 0; g < params_.groups; ++g) {
        if (isGroupQuarantined(g) || !injector_->retirementDue(g))
            continue;
        if (quarantinedGroupCount() + 1 >= params_.groups)
            continue; // never retire the last group in service
        injector_->markRetired(g);
        ++retiredUnits_;
        quarantineGroup(g);
        evacuateGroup(g);
    }
}

void
IndepSplitOram::noteGroupSuspicion(unsigned g, double blame)
{
    if (!injector_)
        return;
    injector_->noteMistrust(g, blame);
    if (!injector_->mistrustArmed() ||
        policy_ != fault::DegradationPolicy::Degraded)
        return;
    if (failedStop_ || isGroupQuarantined(g))
        return;
    if (injector_->convictionDue(g))
        convictGroup(g);
}

void
IndepSplitOram::convictGroup(unsigned g)
{
    const std::string site = "mistrust.group" + std::to_string(g);
    injector_->markConvicted(g);
    ++convictedUnits_;
    if (quarantinedGroupCount() + 1 >= params_.groups) {
        // Convicting the last group in service leaves nowhere to
        // evacuate to: distinct zero-survivor ledger entry + FailStop,
        // same shape as handleDeadGroup.
        injector_->recordUnrecovered(fault::FaultKind::ByzantineConvict,
                                     site + ".zero_survivors", 0);
        injector_->recordZeroSurvivorFailStop();
        quarantineGroup(g);
        failedStop_ = true;
        return;
    }
    injector_->recordRecovered(fault::FaultKind::ByzantineConvict, site,
                               0);
    quarantineGroup(g);
    evacuateGroup(g);
}

void
IndepSplitOram::evacuateGroup(unsigned dead)
{
    // Maintenance-path read of the dead group's raw slice shares
    // (docs/FAULTS.md states the assumption), then CPU-private remaps
    // off the dead group before any wire traffic.
    const std::vector<std::pair<Addr, BlockData>> live =
        groups_[dead]->residentBlocks();
    for (Addr a = 0; a < posMap_.size(); ++a) {
        if (groupOf(posMap_[a]) == dead)
            posMap_[a] = drawGlobalLeaf();
    }

    // Dummy-padded APPEND streams sized by the public tree geometry
    // (padded up only when more than one tree's capacity is live).
    const std::uint64_t slots = std::max<std::uint64_t>(
        params_.perGroupTree.capacityBlocks(), live.size());
    ++evacuationDepth_;
    SD_ASSERT(evacuationDepth_ <= params_.groups);
    for (std::uint64_t s = 0; s < slots; ++s) {
        const bool have = s < live.size();
        bool placed = false;
        bool redo = true;
        while (redo) {
            redo = false;
            const unsigned quarantinedBefore = quarantinedGroupCount();
            for (unsigned g = 0; g < params_.groups; ++g) {
                // Re-entrant recovery: a correlated cascade can kill
                // a second group while this evacuation is mid-stream;
                // the nested evacuation drains everything this loop
                // already re-appended onto it, and the fresh posMap_
                // reads below route the rest around it (see
                // IndependentOram).
                if (!failedStop_ && !isGroupQuarantined(g) &&
                    injector_->unitDead(g)) {
                    ++nestedEvacuations_;
                    runWatchdog(g);
                    handleDeadGroup(g,
                                    "watchdog.group" + std::to_string(g) +
                                        ".mid_evac",
                                    injector_->plan().watchdogMaxProbes);
                }
                if (failedStop_ || isGroupQuarantined(g)) {
                    recordBus(SdimmCommandType::Append, g);
                    ++appendsDummy_;
                    continue;
                }
                const bool delivered = transmitGroupCommand(
                    SdimmCommandType::Append, g, "indep_split.evacuate");
                const bool real =
                    have && !placed && !isGroupQuarantined(g) &&
                    groupOf(posMap_[live[s].first]) == g;
                if (real)
                    ++appendsReal_;
                else
                    ++appendsDummy_;
                if (delivered && real) {
                    groups_[g]->adoptBlock(
                        live[s].first,
                        localLeaf(posMap_[live[s].first]),
                        live[s].second);
                    placed = true;
                }
            }
            // A nested evacuation (or a budget-exhaustion quarantine
            // inside transmitGroupCommand) can redraw this slot's
            // destination onto a group the sweep above had ALREADY
            // passed, silently dropping the block.  Whenever the
            // quarantine set changed mid-sweep -- a public,
            // fault-triggered event -- re-run the slot: an unplaced
            // block lands on its redrawn survivor, and a placed one
            // rides the re-run as all-dummy padding.
            if (!failedStop_ &&
                quarantinedGroupCount() != quarantinedBefore)
                redo = true;
        }
    }
    --evacuationDepth_;
    evacuatedBlocks_ += live.size();
    injector_->recordEvacuation(live.size(), slots * params_.groups);
}

BlockData
IndepSplitOram::access(Addr addr, oram::OramOp op,
                       const BlockData *new_data)
{
    SD_ASSERT(addr < posMap_.size());
    const bool write = op == oram::OramOp::Write;
    SD_ASSERT(!write || new_data != nullptr);

    // Permanent faults surface before the PosMap lookup, so a
    // quarantine's remaps are already visible to the leaf read below.
    if (injector_) {
        injector_->noteAccess();
        sweepPermanentFaults();
    }

    const LeafId old_leaf = posMap_[addr];
    const LeafId new_leaf = drawGlobalLeaf();
    posMap_[addr] = new_leaf;

    const unsigned src = groupOf(old_leaf);
    const unsigned dst = groupOf(new_leaf);
    const bool stays = src == dst;

    if (failedStop_ || isGroupQuarantined(src)) {
        // Fail-stop or a quarantined source group: preserve the bus
        // shape, serve zeros (post-evacuation remaps make the
        // quarantined-src case unreachable unless every group died).
        recordBus(SdimmCommandType::Access, src);
        for (unsigned g = 0; g < params_.groups; ++g)
            recordBus(SdimmCommandType::Append, g);
        ++degradedAccesses_;
        if (injector_)
            injector_->recordDegraded();
        return BlockData{};
    }

    // The Split access inside the source group (the ACCESS command).
    if (!transmitGroupCommand(SdimmCommandType::Access, src,
                              "indep_split.access")) {
        for (unsigned g = 0; g < params_.groups; ++g)
            recordBus(SdimmCommandType::Append, g);
        ++degradedAccesses_;
        return BlockData{};
    }
    const BlockData old = groups_[src]->accessExplicit(
        addr, localLeaf(old_leaf),
        stays ? localLeaf(new_leaf) : invalidLeaf, op, new_data);

    /*
     * Byzantine groups: a group-level corruptor/liar garbles its
     * response; an equivocator hands back stale-but-internally-
     * consistent slice shares that disagree with its peers.  Either
     * way the Split frontend's cross-slice reconciliation catches the
     * lie (the garbling is modeled wire-side -- `old` above is the
     * honest reconstruction) and the CPU re-issues the ACCESS, up to
     * the shared retry budget.  Every failure blames src in the
     * mistrust tracker, exactly like the Independent downlink.
     */
    if (injector_) {
        double srcBlame = 0.0;
        unsigned attempts = 0;
        const unsigned budget = injector_->maxRetries();
        for (;;) {
            const bool equiv = injector_->rollByzantineEquivocate(src);
            const bool garble = injector_->rollByzantineCorrupt(src);
            if (!equiv && !garble)
                break;
            const fault::FaultKind kind =
                equiv ? fault::FaultKind::ByzantineEquivocate
                      : fault::FaultKind::ByzantineCorrupt;
            injector_->recordDetected(kind);
            srcBlame += 1.0;
            if (attempts >= budget) {
                if (injector_->mistrustArmed() &&
                    policy_ == fault::DegradationPolicy::Degraded &&
                    !isGroupQuarantined(src) &&
                    quarantinedGroupCount() + 1 < params_.groups) {
                    // Preemption-conviction (see IndependentOram):
                    // the final detection is closed as recovered --
                    // the conviction IS the recovery -- the group is
                    // evicted, and `old` already holds the honest
                    // reconstruction.
                    injector_->recordRecovered(
                        kind, "indep_split.access.convict", attempts);
                    convictGroup(src);
                    break;
                }
                const bool was = isGroupQuarantined(src);
                if (policy_ != fault::DegradationPolicy::Degraded) {
                    injector_->recordUnrecovered(
                        kind, "indep_split.access", attempts);
                    failedStop_ = true;
                } else if (!was && quarantinedGroupCount() + 1 >=
                                       params_.groups) {
                    injector_->recordUnrecovered(
                        kind, "indep_split.access.zero_survivors",
                        attempts);
                    injector_->recordZeroSurvivorFailStop();
                    quarantineGroup(src);
                    failedStop_ = true;
                } else {
                    injector_->recordUnrecovered(
                        kind, "indep_split.access", attempts);
                    quarantineGroup(src);
                    if (!was)
                        evacuateGroup(src);
                }
                noteGroupSuspicion(src, srcBlame);
                for (unsigned g = 0; g < params_.groups; ++g)
                    recordBus(SdimmCommandType::Append, g);
                ++degradedAccesses_;
                return BlockData{};
            }
            ++attempts;
            injector_->recordRecovered(kind, "indep_split.access", 1);
            recordBus(SdimmCommandType::Access, src); // The re-issue.
        }
        noteGroupSuspicion(src, srcBlame);
        if (failedStop_) {
            // A mid-access zero-survivor conviction: keep the bus
            // shape, the data is gone.
            for (unsigned g = 0; g < params_.groups; ++g)
                recordBus(SdimmCommandType::Append, g);
            ++degradedAccesses_;
            return BlockData{};
        }
    }

    // Independent dimension: one APPEND per group (real only at the
    // destination, and only when the block actually moved).
    for (unsigned g = 0; g < params_.groups; ++g) {
        if (isGroupQuarantined(g)) {
            // Dead group: keep the channel shape, nothing to deliver
            // (drawGlobalLeaf() never routes a real block here).
            recordBus(SdimmCommandType::Append, g);
            ++appendsDummy_;
            continue;
        }
        const bool delivered = transmitGroupCommand(
            SdimmCommandType::Append, g, "indep_split.append");
        const bool real = !stays && g == dst;
        if (real)
            ++appendsReal_;
        else
            ++appendsDummy_;
        if (delivered && real) {
            groups_[g]->adoptBlock(addr, localLeaf(new_leaf),
                                   write ? *new_data : old);
        }
    }
    return old;
}

void
IndepSplitOram::recordBus(SdimmCommandType type, unsigned g)
{
    if (observer_)
        observer_(TraceEventKind::ShortCmd,
                  (static_cast<std::uint64_t>(type) << 8) | g);
}

std::uint64_t
IndepSplitOram::accessCount() const
{
    std::uint64_t total = 0;
    for (const auto &g : groups_)
        total += g->accessCount();
    return total;
}

bool
IndepSplitOram::integrityOk() const
{
    if (failedStop_)
        return false;
    for (const auto &g : groups_) {
        if (!g->integrityOk())
            return false;
    }
    return true;
}

void
IndepSplitOram::exportMetrics(util::MetricsRegistry &m,
                              const std::string &prefix) const
{
    m.setCounter(prefix + ".appends_real", appendsReal_);
    m.setCounter(prefix + ".appends_dummy", appendsDummy_);
    m.setCounter(prefix + ".degraded_accesses", degradedAccesses_);
    m.setCounter(prefix + ".quarantined_groups", quarantinedGroupCount());
    m.setCounter(prefix + ".evacuated_blocks", evacuatedBlocks_);
    if (nestedEvacuations_)
        m.setCounter(prefix + ".nested_evacuations", nestedEvacuations_);
    if (retiredUnits_)
        m.setCounter(prefix + ".retired_units", retiredUnits_);
    if (convictedUnits_)
        m.setCounter(prefix + ".convicted_units", convictedUnits_);
    for (unsigned g = 0; g < params_.groups; ++g) {
        groups_[g]->exportMetrics(m,
                                  prefix + ".g" + std::to_string(g));
    }
}

} // namespace secdimm::sdimm

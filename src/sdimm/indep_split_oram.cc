#include "sdimm/indep_split_oram.hh"

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

IndepSplitOram::IndepSplitOram(const Params &params, std::uint64_t seed)
    : IndependentFrontend("group", "quarantined_groups", params.groups,
                          params.perGroupTree, seed),
      params_(params)
{
    for (unsigned g = 0; g < params_.groups; ++g) {
        SplitOram::Params sp;
        sp.tree = params_.perGroupTree;
        sp.slices = params_.slicesPerGroup;
        groups_.push_back(
            std::make_unique<SplitOram>(sp, seed * 2654435761u + g));
    }
    fillPositionMap();
}

void
IndepSplitOram::setFaultInjector(fault::FaultInjector *inj,
                                 fault::DegradationPolicy policy)
{
    armFrontend(inj, policy);
    for (auto &g : groups_)
        g->setFaultInjector(inj);
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
            onUnrecoverable(kind, g, site, attempts);
            return false;
        }
        ++attempts;
        injector_->recordRecovered(kind, site, 1);
        recordBus(type, g); // The retransmission.
    }
}

void
IndepSplitOram::sendProbe(unsigned g)
{
    recordBus(SdimmCommandType::Probe, g);
}

std::vector<oram::StashEntry>
IndepSplitOram::residentBlocks(unsigned g)
{
    return groups_[g]->residentBlocks();
}

bool
IndepSplitOram::appendSlot(unsigned g, const oram::StashEntry *real)
{
    const bool delivered = transmitGroupCommand(
        SdimmCommandType::Append, g, "indep_split.append");
    // An exhausted budget may have quarantined g: the slot then
    // counts as padding.
    if (real && !isQuarantined(g))
        ++appendsReal_;
    else
        ++appendsDummy_;
    if (delivered && real)
        groups_[g]->adoptBlock(real->addr, real->leaf, real->data);
    return delivered;
}

void
IndepSplitOram::padAppend(unsigned g)
{
    recordBus(SdimmCommandType::Append, g);
    ++appendsDummy_;
}

void
IndepSplitOram::padAccess(unsigned g)
{
    recordBus(SdimmCommandType::Access, g);
}

std::optional<BlockData>
IndepSplitOram::fetch(unsigned src, Addr addr, LeafId old_local,
                      LeafId new_local, oram::OramOp op,
                      const BlockData *new_data)
{
    // The Split access inside the source group (the ACCESS command).
    if (!transmitGroupCommand(SdimmCommandType::Access, src,
                              "indep_split.access"))
        return std::nullopt;
    const BlockData old = groups_[src]->accessExplicit(
        addr, old_local, new_local, op, new_data);
    if (!injector_)
        return old;

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
            // A preemption conviction keeps the block: `old` already
            // holds the honest reconstruction.
            if (preemptConviction(src, kind, "indep_split.access",
                                  attempts))
                break;
            onUnrecoverable(kind, src, "indep_split.access", attempts);
            noteUnitSuspicion(src, srcBlame);
            return std::nullopt;
        }
        ++attempts;
        injector_->recordRecovered(kind, "indep_split.access", 1);
        recordBus(SdimmCommandType::Access, src); // The re-issue.
    }
    noteUnitSuspicion(src, srcBlame);
    // A mid-access zero-survivor conviction: the data is gone.
    if (failedStop_)
        return std::nullopt;
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
    exportFleetMetrics(m, prefix);
    for (unsigned g = 0; g < params_.groups; ++g) {
        groups_[g]->exportMetrics(m,
                                  prefix + ".g" + std::to_string(g));
    }
}

} // namespace secdimm::sdimm

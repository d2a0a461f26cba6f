#include "sdimm/independent_oram.hh"

#include <algorithm>
#include <cctype>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

IndependentOram::IndependentOram(const Params &params, std::uint64_t seed)
    : params_(params),
      localLevels_(params.perSdimm.levels),
      rng_(seed)
{
    SD_ASSERT(isPowerOfTwo(params_.numSdimms));
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        buffers_.push_back(std::make_unique<SecureBuffer>(
            params_.perSdimm, i, seed * 1000003 + i,
            params_.transferCapacity, params_.drainProb, rng_));
    }
    const std::uint64_t global_leaves =
        static_cast<std::uint64_t>(params_.numSdimms) *
        params_.perSdimm.numLeaves();
    posMap_.resize(capacityBlocks());
    for (auto &leaf : posMap_)
        leaf = rng_.nextBelow(global_leaves);
}

std::uint64_t
IndependentOram::capacityBlocks() const
{
    return static_cast<std::uint64_t>(params_.numSdimms) *
           params_.perSdimm.capacityBlocks();
}

unsigned
IndependentOram::sdimmOf(LeafId global_leaf) const
{
    return static_cast<unsigned>(global_leaf >> localLevels_);
}

LeafId
IndependentOram::localLeaf(LeafId global_leaf) const
{
    return global_leaf & ((LeafId{1} << localLevels_) - 1);
}

void
IndependentOram::setFaultInjector(fault::FaultInjector *inj,
                                  fault::DegradationPolicy policy)
{
    injector_ = inj;
    policy_ = policy;
    quarantined_.assign(params_.numSdimms, false);
    for (auto &b : buffers_)
        b->setFaultInjector(inj);
}

void
IndependentOram::quarantine(unsigned sdimm)
{
    if (quarantined_.empty())
        quarantined_.assign(params_.numSdimms, false);
    SD_ASSERT(sdimm < quarantined_.size());
    if (!quarantined_[sdimm] && injector_)
        injector_->recordQuarantine();
    quarantined_[sdimm] = true;
}

unsigned
IndependentOram::quarantinedCount() const
{
    unsigned n = 0;
    for (const bool q : quarantined_)
        n += q ? 1 : 0;
    return n;
}

LeafId
IndependentOram::drawGlobalLeaf()
{
    const std::uint64_t global_leaves =
        static_cast<std::uint64_t>(params_.numSdimms) *
        params_.perSdimm.numLeaves();
    // One draw in the common case; redraws only consult the (public)
    // quarantine set, never data, so the draw count stays
    // data-independent.  At least one SDIMM is always in service.
    LeafId leaf;
    do {
        leaf = rng_.nextBelow(global_leaves);
    } while (isQuarantined(sdimmOf(leaf)) &&
             quarantinedCount() < params_.numSdimms);
    return leaf;
}

void
IndependentOram::onUnrecoverable(fault::FaultKind kind, unsigned sdimm,
                                 const std::string &site,
                                 unsigned attempts)
{
    if (policy_ != fault::DegradationPolicy::Degraded) {
        injector_->recordUnrecovered(kind, site, attempts);
        failedStop_ = true;
        return;
    }
    const bool was = isQuarantined(sdimm);
    if (!was && quarantinedCount() + 1 >= params_.numSdimms) {
        // Quarantining the last unit in service leaves nowhere to
        // evacuate to: fall back to FailStop with a distinct ledger
        // entry instead of dummy-padding an APPEND stream into
        // nothing.
        injector_->recordUnrecovered(kind, site + ".zero_survivors",
                                     attempts);
        injector_->recordZeroSurvivorFailStop();
        quarantine(sdimm);
        failedStop_ = true;
        return;
    }
    injector_->recordUnrecovered(kind, site, attempts);
    quarantine(sdimm);
    if (!was)
        evacuateSdimm(sdimm);
}

void
IndependentOram::runWatchdog(unsigned sdimm)
{
    const fault::FaultPlan &plan = injector_->plan();
    for (unsigned p = 0; p < plan.watchdogMaxProbes; ++p) {
        recordBus(SdimmCommandType::Probe, sdimm, 0);
        injector_->recordWatchdogProbe(plan.watchdogBackoff(p));
    }
    injector_->markPermanentDetected(sdimm);
}

void
IndependentOram::handleDeadUnit(unsigned sdimm, const std::string &site,
                                unsigned attempts)
{
    if (policy_ != fault::DegradationPolicy::Degraded) {
        injector_->recordUnrecovered(fault::FaultKind::WatchdogTimeout,
                                     site, attempts);
        failedStop_ = true;
        return;
    }
    if (quarantinedCount() + 1 >= params_.numSdimms) {
        // Zero survivors after this quarantine: distinct ledger entry
        // + FailStop (see onUnrecoverable).  Detection already closed
        // by the watchdog, so the identity detected == recovered +
        // unrecovered still holds exactly.
        injector_->recordUnrecovered(fault::FaultKind::WatchdogTimeout,
                                     site + ".zero_survivors", attempts);
        injector_->recordZeroSurvivorFailStop();
        quarantine(sdimm);
        failedStop_ = true;
        return;
    }
    injector_->recordRecovered(fault::FaultKind::WatchdogTimeout, site,
                               attempts);
    quarantine(sdimm);
    evacuateSdimm(sdimm);
}

void
IndependentOram::sweepPermanentFaults()
{
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        if (failedStop_)
            return;
        if (isQuarantined(i) || !injector_->unitDead(i))
            continue;
        runWatchdog(i);
        handleDeadUnit(i, "watchdog.sdimm" + std::to_string(i),
                       injector_->plan().watchdogMaxProbes);
    }
    sweepRetirement();
}

void
IndependentOram::sweepRetirement()
{
    if (failedStop_ || injector_->plan().retireTaxThresholdCycles == 0)
        return;
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        if (!isQuarantined(i))
            injector_->noteUnitTax(i, injector_->unitLatencyPenalty(i));
    }
    if (policy_ != fault::DegradationPolicy::Degraded)
        return;
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        if (isQuarantined(i) || !injector_->retirementDue(i))
            continue;
        if (quarantinedCount() + 1 >= params_.numSdimms)
            continue; // never retire the last unit in service
        injector_->markRetired(i);
        ++retiredUnits_;
        quarantine(i);
        evacuateSdimm(i);
    }
}

void
IndependentOram::noteUnitSuspicion(unsigned sdimm, double blame)
{
    if (!injector_)
        return;
    injector_->noteMistrust(sdimm, blame);
    if (!injector_->mistrustArmed() ||
        policy_ != fault::DegradationPolicy::Degraded)
        return;
    if (failedStop_ || isQuarantined(sdimm))
        return;
    if (injector_->convictionDue(sdimm))
        convictUnit(sdimm);
}

void
IndependentOram::convictUnit(unsigned sdimm)
{
    const std::string site = "mistrust.sdimm" + std::to_string(sdimm);
    injector_->markConvicted(sdimm);
    ++convictedUnits_;
    if (quarantinedCount() + 1 >= params_.numSdimms) {
        // Convicting the last unit in service leaves nowhere to
        // evacuate to: distinct zero-survivor ledger entry + FailStop,
        // same shape as handleDeadUnit.
        injector_->recordUnrecovered(fault::FaultKind::ByzantineConvict,
                                     site + ".zero_survivors", 0);
        injector_->recordZeroSurvivorFailStop();
        quarantine(sdimm);
        failedStop_ = true;
        return;
    }
    injector_->recordRecovered(fault::FaultKind::ByzantineConvict, site,
                               0);
    quarantine(sdimm);
    evacuateSdimm(sdimm);
}

void
IndependentOram::evacuateSdimm(unsigned sdimm)
{
    /*
     * Maintenance-path read: the buffer chip's protocol engine is
     * dead but the raw DRAM behind it is still readable (docs/FAULTS.md
     * states the assumption); this also covers the chip-internal stash
     * and transfer-queue state the model keeps alongside the tree.
     */
    const std::vector<oram::StashEntry> live =
        buffers_[sdimm]->residentBlocks();

    // PosMap remaps are CPU-private: every address routed at the dead
    // SDIMM is silently redrawn among the survivors before any wire
    // traffic, so the APPEND destinations below look like any other
    // relocation.
    for (Addr a = 0; a < posMap_.size(); ++a) {
        if (sdimmOf(posMap_[a]) == sdimm)
            posMap_[a] = drawGlobalLeaf();
    }

    /*
     * Dummy-padded APPEND streams: the slot count is the per-SDIMM
     * tree capacity (public geometry), padded up only when more than
     * that is live -- and the live count is a function of the public
     * leaf randomness, never of block contents.
     */
    const std::uint64_t slots = std::max<std::uint64_t>(
        params_.perSdimm.capacityBlocks(), live.size());
    ++evacuationDepth_;
    SD_ASSERT(evacuationDepth_ <= params_.numSdimms);
    for (std::uint64_t s = 0; s < slots; ++s) {
        const bool have = s < live.size();
        bool placed = false;
        bool redo = true;
        while (redo) {
            redo = false;
            const unsigned quarantinedBefore = quarantinedCount();
            for (unsigned i = 0; i < params_.numSdimms; ++i) {
                /*
                 * Re-entrant recovery: a correlated cascade can
                 * surface a SECOND death while this evacuation is
                 * mid-stream.  The watchdog fires here, the new
                 * corpse is quarantined, and its evacuation nests
                 * inside this one (the unit is quarantined before the
                 * recursion, so the depth is bounded by numSdimms).
                 * Blocks this loop already re-appended onto the newly
                 * dead unit are in its buffer and get drained by the
                 * nested pass; blocks still pending re-read posMap_
                 * fresh below, so they route around it.
                 */
                if (!failedStop_ && !isQuarantined(i) &&
                    injector_->unitDead(i)) {
                    ++nestedEvacuations_;
                    runWatchdog(i);
                    handleDeadUnit(i,
                                   "watchdog.sdimm" + std::to_string(i) +
                                       ".mid_evac",
                                   injector_->plan().watchdogMaxProbes);
                }
                AppendRequest app;
                if (have && !failedStop_ && !placed) {
                    const LeafId leaf = posMap_[live[s].addr];
                    app.real = !isQuarantined(i) && sdimmOf(leaf) == i;
                    if (app.real) {
                        app.addr = live[s].addr;
                        app.localLeaf = localLeaf(leaf);
                        app.data = live[s].data;
                    }
                }
                if (failedStop_ || isQuarantined(i)) {
                    recordBus(SdimmCommandType::Append, i,
                              appendBodyBytes);
                    continue;
                }
                const bool ok = transmitUplink(
                    i, SdimmCommandType::Append,
                    [&] {
                        return buffers_[i]->cpuLink().seal(
                            0x03, packAppend(app));
                    },
                    [&](const SealedMessage &m) {
                        return buffers_[i]->handleAppend(m);
                    });
                if (app.real && ok)
                    placed = true;
            }
            /*
             * A nested evacuation (or a budget-exhaustion quarantine
             * inside transmitUplink) can redraw this slot's
             * destination onto a unit the sweep above had ALREADY
             * passed, silently dropping the block.  Whenever the
             * quarantine set changed mid-sweep -- a public,
             * fault-triggered event -- re-run the slot: the block (if
             * still unplaced) lands on its redrawn survivor, and an
             * already-placed block rides the re-run as all-dummy
             * padding, indistinguishable on the wire.
             */
            if (!failedStop_ && quarantinedCount() != quarantinedBefore)
                redo = true;
        }
    }
    --evacuationDepth_;
    evacuatedBlocks_ += live.size();
    injector_->recordEvacuation(live.size(), slots * params_.numSdimms);
}

bool
IndependentOram::transmitUplink(
    unsigned sdimm, SdimmCommandType type,
    const std::function<SealedMessage()> &reseal,
    const std::function<bool(const SealedMessage &)> &deliver)
{
    unsigned attempts = 0;
    const unsigned budget = injector_ ? injector_->maxRetries() : 0;
    const std::string site =
        std::string("uplink.") + commandName(type);
    while (true) {
        SealedMessage msg = reseal();
        recordBus(type, sdimm, msg.body.size());
        fault::WireOutcome out = injector_
                                     ? injector_->rollLinkFault()
                                     : fault::WireOutcome::Delivered;
        if (out == fault::WireOutcome::Delayed) {
            // The frame arrives one timeout window late; the PROBE
            // that notices the silence is the deterministic backoff.
            injector_->recordDetected(fault::FaultKind::LinkDelay);
            injector_->recordRecovered(fault::FaultKind::LinkDelay,
                                       site, 1);
            recordBus(SdimmCommandType::Probe, sdimm, 0);
            out = fault::WireOutcome::Delivered;
        }
        if (out == fault::WireOutcome::Corrupted)
            injector_->corruptBuffer(msg.body);
        const bool accepted =
            out != fault::WireOutcome::Dropped && deliver(msg);
        if (accepted)
            return true;
        // Corruption is caught by the buffer's CMAC; a drop by the
        // PROBE timeout.  Either way the CPU re-seals and re-sends.
        const fault::FaultKind kind =
            out == fault::WireOutcome::Dropped
                ? fault::FaultKind::LinkDrop
                : fault::FaultKind::LinkCorrupt;
        injector_->recordDetected(kind);
        recordBus(SdimmCommandType::Probe, sdimm, 0);
        if (attempts >= budget) {
            onUnrecoverable(kind, sdimm, site, attempts);
            return false;
        }
        ++attempts;
        injector_->recordRecovered(kind, site, 1);
    }
}

BlockData
IndependentOram::access(Addr addr, oram::OramOp op,
                        const BlockData *new_data)
{
    SD_ASSERT(addr < posMap_.size());
    const bool write = op == oram::OramOp::Write;
    SD_ASSERT(!write || new_data != nullptr);

    // Permanent faults surface here: the watchdog notices a silent
    // SDIMM before the PosMap lookup, so a quarantine's remaps are
    // already in place when the leaf below is read.
    if (injector_) {
        injector_->noteAccess();
        sweepPermanentFaults();
    }

    // Frontend: look up and remap the global leaf.
    const LeafId old_leaf = posMap_[addr];
    const LeafId new_leaf = drawGlobalLeaf();
    posMap_[addr] = new_leaf;

    const unsigned src = sdimmOf(old_leaf);
    const unsigned dst = sdimmOf(new_leaf);
    const bool stays = src == dst;

    // A stopped protocol or a quarantined source SDIMM still walks
    // the full message schedule (the adversary must not learn which
    // blocks were lost), but the data itself is gone: serve zeros.
    if (failedStop_ || isQuarantined(src)) {
        ++degradedAccesses_;
        if (injector_)
            injector_->recordDegraded();
        recordBus(SdimmCommandType::Access, src, accessBodyBytes);
        recordBus(SdimmCommandType::Probe, src, 0);
        recordBus(SdimmCommandType::FetchResult, src,
                  responseBodyBytes);
        for (unsigned i = 0; i < params_.numSdimms; ++i) {
            AppendRequest app; // all-dummy: nothing real survives
            if (failedStop_ || isQuarantined(i)) {
                recordBus(SdimmCommandType::Append, i, appendBodyBytes);
                continue;
            }
            transmitUplink(
                i, SdimmCommandType::Append,
                [&] {
                    return buffers_[i]->cpuLink().seal(0x03,
                                                       packAppend(app));
                },
                [&](const SealedMessage &m) {
                    return buffers_[i]->handleAppend(m);
                });
        }
        return BlockData{};
    }

    // Step 1-2: sealed ACCESS to the source SDIMM (a read still
    // carries one -- dummy -- data block so the operation type is
    // hidden; the fixed message size realizes that).
    AccessRequest req;
    req.addr = addr;
    req.localLeaf = localLeaf(old_leaf);
    req.newLocalLeaf = stays ? localLeaf(new_leaf) : invalidLeaf;
    req.write = write;
    if (write)
        req.data = *new_data;

    // Steps 3-5 happen inside the SDIMM; the CPU polls (PROBE) and
    // fetches the response.  Corrupted/dropped ACCESS frames are
    // re-sealed and re-sent (the receive window only advances on
    // successful unseal, so the fresh sequence number is accepted).
    std::optional<SealedMessage> resp_msg;
    const bool sent = transmitUplink(
        src, SdimmCommandType::Access,
        [&] { return buffers_[src]->cpuLink().seal(0x02, packAccess(req)); },
        [&](const SealedMessage &m) {
            resp_msg = buffers_[src]->handleAccess(m);
            return resp_msg.has_value();
        });
    if (!sent)
        return BlockData{};
    recordBus(SdimmCommandType::Probe, src, 0);

    // Downlink: FETCH_RESULT with bounded re-FETCH on MAC mismatch
    // or a dropped frame (the buffer re-seals its cached response).
    // Every failure here blames src in the mistrust tracker -- the
    // CPU cannot tell a lying unit from a noisy link, only the EWMA
    // threshold separates them.
    std::optional<AccessResponse> resp;
    double srcBlame = 0.0;
    {
        unsigned attempts = 0;
        const unsigned budget = injector_ ? injector_->maxRetries() : 0;
        SealedMessage cur = *resp_msg;
        while (true) {
            recordBus(SdimmCommandType::FetchResult, src,
                      cur.body.size());
            fault::WireOutcome out =
                injector_ ? injector_->rollLinkFault()
                          : fault::WireOutcome::Delivered;
            if (out == fault::WireOutcome::Delayed) {
                injector_->recordDetected(fault::FaultKind::LinkDelay);
                injector_->recordRecovered(fault::FaultKind::LinkDelay,
                                           "downlink.FETCH_RESULT", 1);
                recordBus(SdimmCommandType::Probe, src, 0);
                out = fault::WireOutcome::Delivered;
            }
            // Byzantine garbling happens wire-side on the sealed frame
            // (the chip's honest latch stays intact); a dropped frame
            // gives the liar nothing to garble.  Whether the roll
            // happens depends only on the plan and the (fault-driven,
            // public) delivery outcome.
            const bool byzLie = out != fault::WireOutcome::Dropped &&
                                injector_ &&
                                injector_->rollByzantineCorrupt(src);
            if (out == fault::WireOutcome::Corrupted || byzLie)
                injector_->corruptBuffer(cur.body);
            std::optional<std::vector<std::uint8_t>> plain;
            if (out != fault::WireOutcome::Dropped) {
                plain = buffers_[src]->cpuLink().unseal(cur);
                if (!plain)
                    buffers_[src]->noteAbsorbedCpuAuthFailure();
            }
            if (plain) {
                const auto parsed = unpackResponse(*plain);
                if (!parsed)
                    panic("CPU: SDIMM %u response malformed (%zu "
                          "bytes)",
                          src, plain->size());
                resp = *parsed;
                break;
            }
            if (!injector_)
                panic("CPU: SDIMM %u response failed authentication",
                      src);
            // The ledger kind is the ground-truth cause (modeled
            // detection, same convention as the transient sites); the
            // blame feed below is what the CPU actually observes.
            const fault::FaultKind kind =
                out == fault::WireOutcome::Dropped
                    ? fault::FaultKind::LinkDrop
                    : (byzLie ? fault::FaultKind::ByzantineCorrupt
                              : fault::FaultKind::LinkCorrupt);
            injector_->recordDetected(kind);
            srcBlame += 1.0;
            recordBus(SdimmCommandType::Probe, src, 0);
            if (attempts >= budget) {
                if (injector_->mistrustArmed() &&
                    policy_ == fault::DegradationPolicy::Degraded &&
                    !isQuarantined(src) &&
                    quarantinedCount() + 1 < params_.numSdimms) {
                    /*
                     * Preemption-conviction: a persistent corruptor
                     * exhausts the re-FETCH budget on its very first
                     * access, long before the EWMA hysteresis can run
                     * out.  Convicting here instead of falling into
                     * the lossy transient-exhaustion path keeps the
                     * in-flight block: the final detection is closed
                     * as recovered (the conviction IS the recovery),
                     * the unit is evicted, and the true response is
                     * read over the maintenance path -- the byzantine
                     * lie garbled the sealed frame, not the chip's
                     * honest response latch.
                     */
                    injector_->recordRecovered(
                        kind, "downlink.FETCH_RESULT.convict",
                        attempts);
                    convictUnit(src);
                    const auto truth =
                        buffers_[src]->maintenanceResult();
                    SD_ASSERT(truth.has_value());
                    const auto parsed = unpackResponse(*truth);
                    SD_ASSERT(parsed.has_value());
                    resp = *parsed;
                    break;
                }
                onUnrecoverable(kind, src, "downlink.FETCH_RESULT",
                                attempts);
                return BlockData{};
            }
            ++attempts;
            injector_->recordRecovered(kind, "downlink.FETCH_RESULT",
                                       1);
            auto re = buffers_[src]->refetchResult();
            SD_ASSERT(re.has_value());
            cur = *re;
        }
    }

    // Read-back audit: a LostWrite unit ACKed an earlier APPEND for
    // this address and dropped the payload.  The pending record models
    // the PMMAC freshness counters that deterministically expose the
    // stale chain on the next touch; the data itself is gone, so each
    // dropped payload is one detected + unrecovered episode, blamed on
    // the recorded culprit (which may already have been evicted --
    // attribution must not convict the innocent unit now holding the
    // address).
    if (injector_) {
        if (const auto lw = injector_->takeLostWrite(addr)) {
            const auto [culprit, drops] = *lw;
            for (unsigned d = 0; d < drops; ++d) {
                injector_->recordDetected(
                    fault::FaultKind::ByzantineLostWrite);
                injector_->recordUnrecovered(
                    fault::FaultKind::ByzantineLostWrite,
                    "readback.sdimm" + std::to_string(culprit), 0);
            }
            if (culprit == src)
                srcBlame += static_cast<double>(drops);
            else
                noteUnitSuspicion(culprit, drops);
        }
        // One mistrust feed per access for the unit this access
        // exercised: honest units decay, liars accrue.
        noteUnitSuspicion(src, srcBlame);
    }

    // The value returned to the LLC (pre-write content).
    BlockData result{};
    if (!resp->dummy)
        result = resp->data;
    if (write && resp->dummy) {
        // Local write: the SDIMM kept the (updated) block; the old
        // value is not needed by the caller in this protocol.
        result = BlockData{};
    }

    // Step 6: one APPEND to every SDIMM; only the destination's is
    // real (and only if the block actually moved).  The destination is
    // re-read from the posMap rather than the pre-downlink draw: a
    // mid-access conviction (e.g. the read-back audit convicting a
    // third unit that happened to be this block's planned
    // destination) evacuates that unit and remaps the posMap, and the
    // real APPEND must follow the block.
    const LeafId out_leaf = posMap_[addr];
    const unsigned out_dst = sdimmOf(out_leaf);
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        AppendRequest app;
        app.real = !stays && i == out_dst;
        if (app.real) {
            app.addr = addr;
            app.localLeaf = localLeaf(out_leaf);
            app.data = write ? *new_data : resp->data;
        }
        if (isQuarantined(i)) {
            // Dead SDIMM: keep the channel shape, nothing to deliver
            // (drawGlobalLeaf() never routes a real block here).
            recordBus(SdimmCommandType::Append, i, appendBodyBytes);
            continue;
        }
        transmitUplink(
            i, SdimmCommandType::Append,
            [&] {
                return buffers_[i]->cpuLink().seal(0x03, packAppend(app));
            },
            [&](const SealedMessage &m) {
                return buffers_[i]->handleAppend(m);
            });
    }

    return result;
}

std::uint64_t
IndependentOram::accessCount() const
{
    std::uint64_t total = 0;
    for (const auto &b : buffers_)
        total += b->stats().accessOps;
    return total;
}

bool
IndependentOram::integrityOk() const
{
    if (failedStop_)
        return false;
    for (const auto &b : buffers_) {
        if (!b->integrityOk())
            return false;
    }
    return true;
}

void
IndependentOram::recordBus(SdimmCommandType type, unsigned sdimm,
                           std::size_t bytes)
{
    if (observer_) {
        observer_(TraceEventKind::ShortCmd,
                  (static_cast<std::uint64_t>(type) << 8) | sdimm);
        if (bytes > 0)
            observer_(TraceEventKind::Transfer, bytes);
    }
    const auto idx = static_cast<std::size_t>(type);
    ++cmdCounts_[idx];
    cmdBytes_[idx] += bytes;
}

void
IndependentOram::exportMetrics(util::MetricsRegistry &m,
                               const std::string &prefix) const
{
    for (const SdimmCommandType t : allCommands()) {
        const auto idx = static_cast<std::size_t>(t);
        if (cmdCounts_[idx] == 0)
            continue;
        std::string name = commandName(t);
        for (char &c : name)
            c = static_cast<char>(std::tolower(c));
        m.setCounter(prefix + ".cmd." + name + ".count",
                     cmdCounts_[idx]);
        m.setCounter(prefix + ".cmd." + name + ".bytes",
                     cmdBytes_[idx]);
    }
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        buffers_[i]->exportMetrics(
            m, prefix + ".buf" + std::to_string(i));
    }
    m.setCounter(prefix + ".degraded_accesses", degradedAccesses_);
    m.setCounter(prefix + ".quarantined", quarantinedCount());
    m.setCounter(prefix + ".evacuated_blocks", evacuatedBlocks_);
    if (nestedEvacuations_)
        m.setCounter(prefix + ".nested_evacuations", nestedEvacuations_);
    if (retiredUnits_)
        m.setCounter(prefix + ".retired_units", retiredUnits_);
    if (convictedUnits_)
        m.setCounter(prefix + ".convicted_units", convictedUnits_);
}

} // namespace secdimm::sdimm

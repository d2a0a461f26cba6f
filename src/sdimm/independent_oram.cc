#include "sdimm/independent_oram.hh"

#include <cctype>

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

IndependentOram::IndependentOram(const Params &params, std::uint64_t seed)
    : IndependentFrontend("sdimm", "quarantined", params.numSdimms,
                          params.perSdimm, seed),
      params_(params)
{
    // Each link handshake draws from rng_ before the PosMap fill.
    for (unsigned i = 0; i < params_.numSdimms; ++i) {
        buffers_.push_back(std::make_unique<SecureBuffer>(
            params_.perSdimm, i, seed * 1000003 + i,
            params_.transferCapacity, params_.drainProb, rng_));
    }
    fillPositionMap();
}

void
IndependentOram::setFaultInjector(fault::FaultInjector *inj,
                                  fault::DegradationPolicy policy)
{
    armFrontend(inj, policy);
    for (auto &b : buffers_)
        b->setFaultInjector(inj);
}

void
IndependentOram::sendProbe(unsigned sdimm)
{
    recordBus(SdimmCommandType::Probe, sdimm, 0);
}

std::vector<oram::StashEntry>
IndependentOram::residentBlocks(unsigned sdimm)
{
    // Also covers the chip-internal stash and transfer-queue state the
    // model keeps alongside the tree.
    return buffers_[sdimm]->residentBlocks();
}

bool
IndependentOram::appendSlot(unsigned sdimm, const oram::StashEntry *real)
{
    AppendRequest app;
    if (real) {
        app.real = true;
        app.addr = real->addr;
        app.localLeaf = real->leaf;
        app.data = real->data;
    }
    return transmitUplink(
        sdimm, SdimmCommandType::Append,
        [&] { return buffers_[sdimm]->cpuLink().seal(0x03, packAppend(app)); },
        [&](const SealedMessage &m) {
            return buffers_[sdimm]->handleAppend(m);
        });
}

void
IndependentOram::padAppend(unsigned sdimm)
{
    recordBus(SdimmCommandType::Append, sdimm, appendBodyBytes);
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

void
IndependentOram::padAccess(unsigned sdimm)
{
    recordBus(SdimmCommandType::Access, sdimm, accessBodyBytes);
    recordBus(SdimmCommandType::Probe, sdimm, 0);
    recordBus(SdimmCommandType::FetchResult, sdimm, responseBodyBytes);
}

std::optional<BlockData>
IndependentOram::fetch(unsigned src, Addr addr, LeafId old_local,
                       LeafId new_local, oram::OramOp op,
                       const BlockData *new_data)
{
    // Step 1-2: sealed ACCESS to the source SDIMM (a read still
    // carries one -- dummy -- data block so the operation type is
    // hidden; the fixed message size realizes that).
    AccessRequest req;
    req.addr = addr;
    req.localLeaf = old_local;
    req.newLocalLeaf = new_local;
    req.write = op == oram::OramOp::Write;
    if (req.write)
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
        return std::nullopt;
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
                if (preemptConviction(src, kind, "downlink.FETCH_RESULT",
                                      attempts)) {
                    // The byzantine lie garbled the sealed frame, not
                    // the chip's honest response latch: read the true
                    // response over the maintenance path.
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
                return std::nullopt;
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

    return resp->data;
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
    exportFleetMetrics(m, prefix);
}

} // namespace secdimm::sdimm

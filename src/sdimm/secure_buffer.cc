#include "sdimm/secure_buffer.hh"

#include <cstring>

#include "fault/fault_injector.hh"
#include "util/logging.hh"

namespace secdimm::sdimm
{

namespace
{

void
put64(std::vector<std::uint8_t> &b, std::size_t off, std::uint64_t v)
{
    std::memcpy(b.data() + off, &v, 8);
}

std::uint64_t
get64(const std::vector<std::uint8_t> &b, std::size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, b.data() + off, 8);
    return v;
}

} // namespace

std::vector<std::uint8_t>
packAccess(const AccessRequest &r)
{
    std::vector<std::uint8_t> b(accessBodyBytes);
    put64(b, 0, r.addr);
    put64(b, 8, r.localLeaf);
    put64(b, 16, r.newLocalLeaf);
    b[24] = r.write ? 1 : 0;
    std::memcpy(b.data() + 25, r.data.data(), blockBytes);
    return b;
}

std::optional<AccessRequest>
unpackAccess(const std::vector<std::uint8_t> &b)
{
    if (b.size() != accessBodyBytes)
        return std::nullopt;
    AccessRequest r;
    r.addr = get64(b, 0);
    r.localLeaf = get64(b, 8);
    r.newLocalLeaf = get64(b, 16);
    r.write = b[24] != 0;
    std::memcpy(r.data.data(), b.data() + 25, blockBytes);
    return r;
}

std::vector<std::uint8_t>
packResponse(const AccessResponse &r)
{
    return {r.data.begin(), r.data.end()};
}

std::optional<AccessResponse>
unpackResponse(const std::vector<std::uint8_t> &b)
{
    if (b.size() != responseBodyBytes)
        return std::nullopt;
    AccessResponse r;
    std::memcpy(r.data.data(), b.data(), blockBytes);
    return r;
}

std::vector<std::uint8_t>
packAppend(const AppendRequest &r)
{
    std::vector<std::uint8_t> b(appendBodyBytes);
    b[0] = r.real ? 1 : 0;
    put64(b, 1, r.addr);
    put64(b, 9, r.localLeaf);
    std::memcpy(b.data() + 17, r.data.data(), blockBytes);
    return b;
}

std::optional<AppendRequest>
unpackAppend(const std::vector<std::uint8_t> &b)
{
    if (b.size() != appendBodyBytes)
        return std::nullopt;
    AppendRequest r;
    r.real = b[0] != 0;
    r.addr = get64(b, 1);
    r.localLeaf = get64(b, 9);
    std::memcpy(r.data.data(), b.data() + 17, blockBytes);
    return r;
}

SecureBuffer::SecureBuffer(const oram::OramParams &params, unsigned index,
                           std::uint64_t seed,
                           std::size_t transfer_capacity,
                           double drain_prob, Rng &boot_rng)
    : SecureBuffer(params, index, seed, transfer_capacity, drain_prob,
                   establishLink(boot_rng))
{
}

SecureBuffer::SecureBuffer(const oram::OramParams &params, unsigned index,
                           std::uint64_t seed,
                           std::size_t transfer_capacity,
                           double drain_prob,
                           std::pair<LinkEndpoint, LinkEndpoint> link)
    : index_(index),
      cpuEnd_(std::move(link.first)),
      dimmEnd_(std::move(link.second)),
      oram_(std::make_unique<oram::PathOram>(
          params,
          crypto::makeKey(0xe0c0 + index, seed ^ 0x11),
          crypto::makeKey(0x3a4c + index, seed ^ 0x22), seed + index,
          /*store_salt=*/index)),
      xfer_(transfer_capacity, drain_prob, seed ^ (0x7153 + index))
{
}

void
SecureBuffer::serviceTransferQueue()
{
    auto entry = xfer_.pop();
    if (!entry)
        return;
    if (!oram_->adoptBlock(entry->addr, entry->leaf, entry->data))
        panic("SDIMM %u: normal stash full while servicing transfer "
              "queue", index_);
}

void
SecureBuffer::setFaultInjector(fault::FaultInjector *inj)
{
    injector_ = inj;
    oram_->setFaultInjector(inj);
    xfer_.setFaultInjector(inj);
}

std::optional<SealedMessage>
SecureBuffer::handleAccess(const SealedMessage &msg)
{
    auto plain = dimmEnd_.unseal(msg);
    if (!plain) {
        if (!injector_)
            panic("SDIMM %u: ACCESS failed authentication", index_);
        ++absorbedDimmAuthFailures_;
        return std::nullopt;
    }
    const auto parsed = unpackAccess(*plain);
    if (!parsed) {
        if (!injector_)
            panic("SDIMM %u: ACCESS body malformed (%zu bytes)", index_,
                  plain->size());
        return std::nullopt;
    }
    const AccessRequest req = *parsed;

    ++stats_.accessOps;

    AccessResponse resp;

    // The requested block may still sit in the transfer queue (it was
    // APPENDed but not yet adopted).  Adopt the whole queue into the
    // normal stash before the accessORAM -- this both realizes the
    // "one service per access" rule of Section IV-C with margin and
    // guarantees the lookup sees every resident block.
    while (!xfer_.empty())
        serviceTransferQueue();

    const BlockData old = oram_->accessExplicit(
        req.addr, req.localLeaf, req.newLocalLeaf,
        req.write ? oram::OramOp::Write : oram::OramOp::Read,
        req.write ? &req.data : nullptr);

    // The response carries the accessORAM result, the block's
    // pre-write content.
    resp.data = old;

    lastResponsePlain_ = packResponse(resp);
    haveLastResponse_ = true;
    return dimmEnd_.seal(/*opcode=*/0x10, lastResponsePlain_);
}

std::optional<SealedMessage>
SecureBuffer::refetchResult()
{
    if (!haveLastResponse_)
        return std::nullopt;
    return dimmEnd_.seal(/*opcode=*/0x10, lastResponsePlain_);
}

bool
SecureBuffer::handleAppend(const SealedMessage &msg)
{
    auto plain = dimmEnd_.unseal(msg);
    if (!plain) {
        if (!injector_)
            panic("SDIMM %u: APPEND failed authentication", index_);
        ++absorbedDimmAuthFailures_;
        return false;
    }
    const auto parsed = unpackAppend(*plain);
    if (!parsed) {
        if (!injector_)
            panic("SDIMM %u: APPEND body malformed (%zu bytes)", index_,
                  plain->size());
        return false;
    }
    const AppendRequest req = *parsed;
    if (!req.real) {
        ++stats_.appendsDummy;
        return true;
    }
    ++stats_.appendsReal;
    if (injector_ && injector_->rollByzantineLostWrite(index_)) {
        /*
         * Byzantine lost write: ACK the APPEND but drop the real
         * payload on the floor.  The wire conversation looks the
         * same as an honest one; only the CPU-side
         * read-back audit (modeling PMMAC freshness counters) can
         * discover the stale chain later.
         */
        injector_->noteLostWrite(req.addr, index_);
        return true;
    }
    if (injector_)
        injector_->clearLostWrite(req.addr);
    if (xfer_.full()) {
        // Section IV-C's drain, applied deterministically at the
        // M/M/1/K boundary: run one extra accessORAM to service an
        // entry so the arrival never drops.
        xfer_.recordForcedDrain();
        ++stats_.drainOps;
        ++stats_.accessOps;
        serviceTransferQueue();
        oram_->backgroundEvict();
    }
    if (!xfer_.push(oram::StashEntry{req.addr, req.localLeaf, req.data}))
        panic("SDIMM %u: transfer queue overflow after forced drain",
              index_);
    if (xfer_.rollDrain()) {
        ++stats_.drainOps;
        ++stats_.accessOps;
        serviceTransferQueue();
        oram_->backgroundEvict();
    }
    return true;
}

bool
SecureBuffer::integrityOk() const
{
    return oram_->integrityOk() &&
           cpuEnd_.authFailures() == absorbedCpuAuthFailures_ &&
           dimmEnd_.authFailures() == absorbedDimmAuthFailures_;
}

std::vector<oram::StashEntry>
SecureBuffer::residentBlocks() const
{
    std::vector<oram::StashEntry> out;
    const oram::OramParams &p = oram_->params();
    for (unsigned level = 0; level <= p.levels; ++level) {
        const std::uint64_t width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < width; ++index) {
            const oram::BucketPos pos{level, index};
            oram::BucketReadResult r = oram_->readBucketAt(pos);
            unsigned attempts = 0;
            while (!r.authentic && injector_ &&
                   attempts < injector_->maxRetries()) {
                injector_->recordDetected(fault::FaultKind::DramBitFlip);
                injector_->recordRecovered(fault::FaultKind::DramBitFlip,
                                           "evacuate.read_bucket", 1);
                ++attempts;
                r = oram_->readBucketAt(pos);
            }
            if (!r.authentic) {
                if (injector_) {
                    injector_->recordDetected(fault::FaultKind::DramBitFlip);
                    injector_->recordUnrecovered(
                        fault::FaultKind::DramBitFlip, "evacuate.read_bucket",
                        attempts);
                    continue;
                }
                panic("evacuation read failed authentication");
            }
            for (unsigned i = 0; i < r.bucket.z(); ++i) {
                const oram::BlockSlot &s = r.bucket.slot(i);
                if (s.valid())
                    out.push_back({s.addr, s.leaf, s.data});
            }
        }
    }
    for (const oram::StashEntry &e : oram_->stash().entries())
        out.push_back(e);
    for (const oram::StashEntry &e : xfer_.entries())
        out.push_back(e);
    return out;
}

} // namespace secdimm::sdimm

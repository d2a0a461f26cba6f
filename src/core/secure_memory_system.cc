#include "core/secure_memory_system.hh"

#include <algorithm>
#include <cstring>

#include "fault/fault_injector.hh"
#include "oram/recursive_oram.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"
#include "verify/channel_observer.hh"

namespace secdimm::core
{

namespace
{

/**
 * PathOram and Split: top tree levels kept in trusted memory (the
 * paper's ORAM cache; the timing layer's SystemConfig::cachedLevels).
 * Capped at half the tree's levels, so at least half of every path
 * stays in DRAM.
 */
constexpr unsigned kOramCacheLevels = 7;

unsigned
oramCacheLevels(unsigned levels)
{
    return std::min(kOramCacheLevels, (levels + 1) / 2);
}

} // namespace

SecureMemorySystem::SecureMemorySystem(const Options &options)
    : options_(options),
      audits_(verify::AuditSettings::fromEnv(options.audits))
{
    const std::uint64_t want_blocks =
        divCeil(options.capacityBytes, blockBytes);
    SD_ASSERT(want_blocks >= 1);

    oram::OramParams params;
    params.stashCapacity = options.stashCapacity;

    switch (options_.protocol) {
      case Protocol::PathOram: {
        params.levels =
            oram::levelsForCapacity(want_blocks, params.bucketBlocks);
        params.cachedLevels = oramCacheLevels(params.levels);
        auto o = std::make_unique<oram::PathOram>(
            params, crypto::makeKey(0xdeed, options.seed),
            crypto::makeKey(0xfeed, options.seed * 3 + 1),
            options.seed);
        // Driven via access(): the internal PosMap is authoritative.
        audit_ = [&o = *o] {
            return verify::auditPathOram(o, /*check_posmap=*/true);
        };
        metricsPrefix_ = "oram.data";
        engine_ = std::move(o);
        capacityBlocks_ = params.capacityBlocks();
        break;
      }
      case Protocol::Freecursive: {
        oram::RecursiveOram::Params rp;
        rp.data = params;
        rp.data.levels =
            oram::levelsForCapacity(want_blocks, params.bucketBlocks);
        auto o = std::make_unique<oram::RecursiveOram>(rp, options.seed);
        audit_ = [&o = *o] { return verify::auditRecursiveOram(o); };
        metricsPrefix_ = "oram";
        capacityBlocks_ = o->capacityBlocks();
        engine_ = std::move(o);
        break;
      }
      case Protocol::Independent: {
        SD_ASSERT(isPowerOfTwo(options_.numSdimms));
        const std::uint64_t per_sdimm =
            divCeil(want_blocks, options_.numSdimms);
        params.levels =
            oram::levelsForCapacity(per_sdimm, params.bucketBlocks);
        sdimm::IndependentOram::Params ip;
        ip.perSdimm = params;
        ip.numSdimms = options_.numSdimms;
        auto o = std::make_unique<sdimm::IndependentOram>(ip, options.seed);
        audit_ = [&o = *o] { return verify::auditIndependentOram(o); };
        metricsPrefix_ = "sdimm";
        capacityBlocks_ = o->capacityBlocks();
        engine_ = std::move(o);
        break;
      }
      case Protocol::Split: {
        SD_ASSERT(blockBytes % options_.numSdimms == 0);
        params.levels =
            oram::levelsForCapacity(want_blocks, params.bucketBlocks);
        params.cachedLevels = oramCacheLevels(params.levels);
        sdimm::SplitOram::Params sp;
        sp.tree = params;
        sp.slices = options_.numSdimms;
        auto o = std::make_unique<sdimm::SplitOram>(sp, options.seed);
        audit_ = [&o = *o] {
            return verify::auditSplitOram(o, /*check_posmap=*/true);
        };
        metricsPrefix_ = "sdimm.split";
        capacityBlocks_ = o->capacityBlocks();
        engine_ = std::move(o);
        break;
      }
      case Protocol::IndepSplit: {
        SD_ASSERT(isPowerOfTwo(options_.numSdimms));
        SD_ASSERT(blockBytes % options_.slicesPerGroup == 0);
        const std::uint64_t per_group =
            divCeil(want_blocks, options_.numSdimms);
        params.levels =
            oram::levelsForCapacity(per_group, params.bucketBlocks);
        sdimm::IndepSplitOram::Params cp;
        cp.perGroupTree = params;
        cp.groups = options_.numSdimms;
        cp.slicesPerGroup = options_.slicesPerGroup;
        auto o = std::make_unique<sdimm::IndepSplitOram>(cp, options.seed);
        audit_ = [&o = *o] { return verify::auditIndepSplitOram(o); };
        metricsPrefix_ = "sdimm.indep_split";
        capacityBlocks_ = o->capacityBlocks();
        engine_ = std::move(o);
        break;
      }
    }

    if (options_.faultPlan.enabled()) {
        injector_ =
            std::make_unique<fault::FaultInjector>(options_.faultPlan);
        engine_->setFaultInjector(injector_.get(),
                                  options_.degradationPolicy);
    }
}

SecureMemorySystem::~SecureMemorySystem() = default;

std::uint64_t
SecureMemorySystem::capacityBytes() const
{
    return capacityBlocks_ * blockBytes;
}

BlockData
SecureMemorySystem::accessBlock(Addr block_index, oram::OramOp op,
                                const BlockData *data)
{
    if (block_index >= capacityBlocks_) {
        fatal("SecureMemorySystem: block %llu out of range (capacity "
              "%llu blocks)",
              static_cast<unsigned long long>(block_index),
              static_cast<unsigned long long>(capacityBlocks_));
    }
    const BlockData result = engine_->access(block_index, op, data);
    if (audits_.enabled && ++accessesSinceAudit_ >= audits_.interval) {
        accessesSinceAudit_ = 0;
        const verify::AuditReport report = auditNow();
        ++auditsRun_;
        auditViolations_ += report.violations.size();
        if (!report.ok()) {
            fatal("SecureMemorySystem invariant audit failed: %s",
                  report.summary().c_str());
        }
    }
    return result;
}

BlockData
SecureMemorySystem::readBlock(Addr block_index)
{
    return accessBlock(block_index, oram::OramOp::Read, nullptr);
}

BlockData
SecureMemorySystem::writeBlock(Addr block_index, const BlockData &data)
{
    return accessBlock(block_index, oram::OramOp::Write, &data);
}

void
SecureMemorySystem::read(Addr byte_addr, void *out, std::size_t len)
{
    std::uint8_t *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        const BlockData b = readBlock(block);
        std::memcpy(dst, b.data() + off, n);
        dst += n;
        byte_addr += n;
        len -= n;
    }
}

void
SecureMemorySystem::write(Addr byte_addr, const void *data,
                          std::size_t len)
{
    const std::uint8_t *src = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        BlockData b{};
        if (off != 0 || n != blockBytes)
            b = readBlock(block); // Read-modify-write.
        std::memcpy(b.data() + off, src, n);
        writeBlock(block, b);
        src += n;
        byte_addr += n;
        len -= n;
    }
}

std::uint64_t
SecureMemorySystem::accessCount() const
{
    return engine_->accessCount();
}

verify::AuditReport
SecureMemorySystem::auditNow() const
{
    return audit_();
}

unsigned
SecureMemorySystem::attachObserver(verify::ChannelObserver &observer)
{
    return observer.attach(*engine_);
}

util::MetricsRegistry
SecureMemorySystem::metrics() const
{
    util::MetricsRegistry m;
    m.setCounter("core.accesses", accessCount());
    m.setCounter("core.capacity_blocks", capacityBlocks_);
    m.setCounter("core.audits_run", auditsRun_);
    m.setCounter("core.audit_violations", auditViolations_);
    engine_->exportMetrics(m, metricsPrefix_);
    // Aggregate crypto work across the engine (see docs/METRICS.md
    // "crypto.*").
    crypto::CryptoTotals ct;
    engine_->collectCrypto(ct);
    m.setGauge("crypto.impl_id",
               static_cast<double>(
                   static_cast<int>(crypto::activeAesImpl())));
    m.setCounter("crypto.aes_blocks", ct.aesBlocks);
    m.setCounter("crypto.ctr_bytes", ct.ctrBytes);
    m.setCounter("crypto.mac_tags", ct.macTags);
    m.setCounter("crypto.mac_batch_calls", ct.macBatchCalls);
    m.setCounter("crypto.mac_batch_tags", ct.macBatchTags);
    if (injector_)
        injector_->exportMetrics(m, "fault");
    return m;
}

bool
SecureMemorySystem::integrityOk() const
{
    return engine_->integrityOk();
}

} // namespace secdimm::core

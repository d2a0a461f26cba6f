/**
 * @file
 * The library's main functional entry point: an encrypted,
 * access-pattern-oblivious memory.  Pick a protocol (plain Path ORAM,
 * SDIMM Independent, or SDIMM Split), a capacity, and read/write
 * bytes; underneath, real AES-CTR-encrypted, PMMAC-authenticated
 * blocks move through the chosen ORAM protocol.
 *
 * Example:
 * @code
 *   core::SecureMemorySystem::Options opt;
 *   opt.protocol = core::SecureMemorySystem::Protocol::Split;
 *   opt.capacityBytes = 1 << 20;
 *   core::SecureMemorySystem mem(opt);
 *   mem.write(0x1000, "secret", 6);
 * @endcode
 */

#ifndef SECUREDIMM_CORE_SECURE_MEMORY_SYSTEM_HH
#define SECUREDIMM_CORE_SECURE_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault_plan.hh"
#include "fault/fault_types.hh"
#include "oram/oram_engine.hh"
#include "util/metrics.hh"
#include "verify/invariant_audit.hh"

namespace secdimm::verify
{
class ChannelObserver;
}

namespace secdimm::core
{

/** Byte-addressable oblivious memory over the functional protocols. */
class SecureMemorySystem
{
  public:
    enum class Protocol
    {
        PathOram,    ///< Single-tree Path ORAM (baseline).
        Freecursive, ///< Recursive PosMaps + PLB (Section II-D).
        Independent, ///< SDIMM Independent (Section III-C).
        Split,       ///< SDIMM Split (Section III-D).
        IndepSplit,  ///< Independent groups of Splits (Figure 7e).
    };

    struct Options
    {
        Protocol protocol = Protocol::PathOram;
        std::uint64_t capacityBytes = 1 << 20;
        /** SDIMM count (Independent / Split), group count (IndepSplit). */
        unsigned numSdimms = 2;
        /** IndepSplit only: Split width inside each group. */
        unsigned slicesPerGroup = 2;
        unsigned stashCapacity = 200;
        std::uint64_t seed = 1;

        /**
         * Fault-injection campaign (docs/FAULTS.md): when any rate is
         * non-zero a FaultInjector is armed across the chosen
         * protocol's DRAM, link, and queue seams, and MAC/decode
         * failures turn into bounded detect-and-retry episodes
         * governed by @p degradationPolicy instead of panics.
         */
        fault::FaultPlan faultPlan;
        fault::DegradationPolicy degradationPolicy =
            fault::DegradationPolicy::RetryThenStop;

        /**
         * Debug-build-yourself invariant audits: when enabled, every
         * `interval` accesses the active protocol's full invariant set
         * is walked (verify::invariant_audit.hh) and a violation is
         * fatal.  The SDIMM_AUDIT / SDIMM_AUDIT_INTERVAL environment
         * variables override these at construction.
         */
        verify::AuditSettings audits;
    };

    explicit SecureMemorySystem(const Options &options);
    ~SecureMemorySystem();

    SecureMemorySystem(const SecureMemorySystem &) = delete;
    SecureMemorySystem &operator=(const SecureMemorySystem &) = delete;

    /** Usable capacity (rounded up from the requested amount). */
    std::uint64_t capacityBytes() const;

    /** Read one 64-byte block. */
    BlockData readBlock(Addr block_index);

    /** Write one 64-byte block; returns its contents before the write. */
    BlockData writeBlock(Addr block_index, const BlockData &data);

    /** Byte-granular read (spans blocks as needed). */
    void read(Addr byte_addr, void *out, std::size_t len);

    /** Byte-granular write (read-modify-write at block granularity). */
    void write(Addr byte_addr, const void *data, std::size_t len);

    /** Total accessORAM operations performed (incl. dummies). */
    std::uint64_t accessCount() const;

    /** All integrity checks (MACs, counters, link auth) passed. */
    bool integrityOk() const;

    /**
     * Run the active protocol's invariant audit immediately,
     * regardless of the periodic settings, and return the report
     * (the periodic path calls this and fatals on violations).
     */
    verify::AuditReport auditNow() const;

    /**
     * Snapshot of the active protocol's counters, namespaced core.* /
     * oram.* / sdimm.* as in docs/METRICS.md.  Serialize with
     * MetricsRegistry::toJson().
     */
    util::MetricsRegistry metrics() const;

    Protocol protocol() const { return options_.protocol; }

    /**
     * Attach a passive verify::ChannelObserver to this instance's
     * externally visible channel: the BucketStore sequence for
     * PathOram (every tree's, for Freecursive), the leaf sequence for
     * Split, and the command stream for Independent and INDEP-SPLIT
     * (each design's attachObserver says exactly what).  Returns the
     * number of attach points.  The observer must outlive all
     * subsequent accesses.
     */
    unsigned attachObserver(verify::ChannelObserver &observer);

    /**
     * The armed fault injector (nullptr when the FaultPlan is empty):
     * injection/detection/recovery counters for acceptance tests.
     */
    const fault::FaultInjector *faultInjector() const
    {
        return injector_.get();
    }
    fault::FaultInjector *faultInjector() { return injector_.get(); }

  private:
    BlockData accessBlock(Addr block_index, oram::OramOp op,
                          const BlockData *data);

    Options options_;
    std::uint64_t capacityBlocks_;
    verify::AuditSettings audits_;
    std::uint64_t accessesSinceAudit_ = 0;
    std::uint64_t auditsRun_ = 0;
    std::uint64_t auditViolations_ = 0;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<oram::OramEngine> engine_;
    /** The engine's metric namespace (docs/METRICS.md). */
    std::string metricsPrefix_;
    /** The engine's invariant audit, bound to its concrete type. */
    std::function<verify::AuditReport()> audit_;
};

} // namespace secdimm::core

#endif // SECUREDIMM_CORE_SECURE_MEMORY_SYSTEM_HH

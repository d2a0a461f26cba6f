/**
 * @file
 * Runtime invariant audits: structural walks over the functional ORAM
 * implementations asserting the properties the correctness and
 * security arguments rest on -- bucket placement respects the path
 * invariant, every MAC verifies, stashes respect their bounds, no
 * block exists in two places, and transfer-queue counters obey the
 * Section IV-C queueing model.
 *
 * Audits are read-only and report violations as strings instead of
 * asserting, so tests can both demand cleanliness after heavy churn
 * AND inject corruption and demand detection.  The facade
 * (core::SecureMemorySystem) can run them periodically when enabled
 * via AuditSettings / the SDIMM_AUDIT environment variable.
 */

#ifndef SECUREDIMM_VERIFY_INVARIANT_AUDIT_HH
#define SECUREDIMM_VERIFY_INVARIANT_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace secdimm::oram
{
class PathOram;
class RecursiveOram;
}
namespace secdimm::sdimm
{
class IndependentOram;
class SplitOram;
class IndepSplitOram;
class TransferQueue;
}

namespace secdimm::verify
{

/** Outcome of one audit pass. */
struct AuditReport
{
    std::vector<std::string> violations;
    std::uint64_t checksRun = 0;

    bool ok() const { return violations.empty(); }

    /** Absorb another report's findings. */
    void merge(const AuditReport &other);

    /** Record one check; appends @p what on failure. */
    void check(bool condition, const std::string &what);

    /** One-line result ("clean, N checks" or the first violations). */
    std::string summary() const;
};

/**
 * Audit one Path ORAM tree: stash within bounds, every bucket
 * authentic, every resident block's leaf in range and its bucket on
 * the block's path, no duplicate blocks (tree + stash).
 *
 * @p check_posmap additionally requires each block's stored leaf to
 * equal the tree's own PosMap entry.  Only valid for trees driven
 * through access() -- distributed frontends (SecureBuffer, recursion
 * PosMap trees) own the mapping themselves and leave the internal
 * PosMap stale, so they are audited structurally.
 *
 * NOTE: reading buckets fires any attached BucketStore observer;
 * don't audit in the middle of collecting a trace.
 */
AuditReport auditPathOram(const oram::PathOram &o, bool check_posmap);

/** Audit the data tree and every PosMap tree of a recursive ORAM. */
AuditReport auditRecursiveOram(const oram::RecursiveOram &o);

/**
 * Audit an Independent ORAM: every SDIMM's local tree (structural),
 * every transfer queue against the queueing model, and the global
 * placement invariant -- each resident block lives in exactly one
 * SDIMM, the one its global PosMap leaf selects, under the matching
 * local leaf.
 */
AuditReport auditIndependentOram(const sdimm::IndependentOram &o);

/** Audit a Split ORAM (slice MACs, counters, shares, shadow stash). */
AuditReport auditSplitOram(const sdimm::SplitOram &o, bool check_posmap);

/**
 * Audit an INDEP-SPLIT ORAM: every in-service Split group
 * (structural) and the same global placement invariant as Independent
 * -- each resident block lives in exactly one group, the one its
 * global PosMap leaf selects, under the matching local leaf.
 */
AuditReport auditIndepSplitOram(const sdimm::IndepSplitOram &o);

/**
 * Audit transfer-queue counters: conservation (arrivals = services +
 * queued + overflows), occupancy bounds, and the analytic::mm1k
 * overflow prediction -- observed overflows may not exceed the model's
 * expectation by more than an order of magnitude.
 */
AuditReport auditTransferQueue(const sdimm::TransferQueue &q);

/** When and how often the facade runs audits. */
struct AuditSettings
{
    bool enabled = false;
    std::uint64_t interval = 512; ///< Accesses between audit passes.

    /**
     * Apply the SDIMM_AUDIT (0/1) and SDIMM_AUDIT_INTERVAL
     * environment overrides to @p base.
     */
    static AuditSettings fromEnv(AuditSettings base);
    static AuditSettings fromEnv() { return fromEnv(AuditSettings{}); }
};

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_INVARIANT_AUDIT_HH

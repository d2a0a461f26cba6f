#include "verify/invariant_audit.hh"

#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analytic/mm1k.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_oram.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/split_oram.hh"
#include "sdimm/transfer_queue.hh"

namespace secdimm::verify
{

void
AuditReport::merge(const AuditReport &other)
{
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
    checksRun += other.checksRun;
}

void
AuditReport::check(bool condition, const std::string &what)
{
    ++checksRun;
    if (!condition)
        violations.push_back(what);
}

std::string
AuditReport::summary() const
{
    std::ostringstream os;
    if (ok()) {
        os << "clean, " << checksRun << " checks";
        return os.str();
    }
    os << violations.size() << " violation(s) in " << checksRun
       << " checks:";
    for (std::size_t i = 0; i < violations.size() && i < 4; ++i)
        os << " [" << violations[i] << "]";
    if (violations.size() > 4)
        os << " ...";
    return os.str();
}

namespace
{

/**
 * Walk one PathOram's tree + stash.  @p label prefixes messages;
 * @p resident, when given, collects (addr -> local leaf) for a
 * caller-side global cross-check.
 */
void
walkPathOram(const oram::PathOram &o, bool check_posmap,
             const std::string &label, AuditReport &r,
             std::unordered_map<Addr, LeafId> *resident = nullptr)
{
    const oram::OramParams &p = o.params();
    const unsigned L = p.levels;
    const LeafId leaves = p.numLeaves();
    std::unordered_set<Addr> seen;

    const auto note = [&](Addr addr, LeafId leaf) {
        if (resident != nullptr)
            (*resident)[addr] = leaf;
    };

    r.check(o.stash().size() <= o.stash().capacity(),
            label + ": stash exceeds its capacity");

    for (unsigned level = 0; level <= L; ++level) {
        const std::uint64_t width = std::uint64_t{1} << level;
        for (std::uint64_t index = 0; index < width; ++index) {
            const oram::BucketPos pos{level, index};
            const oram::BucketReadResult br = o.readBucketAt(pos);
            {
                std::ostringstream os;
                os << label << ": bucket " << o.layout().bucketSeq(pos)
                   << " failed authentication";
                r.check(br.authentic, os.str());
            }
            for (unsigned s = 0; s < br.bucket.z(); ++s) {
                const oram::BlockSlot &slot = br.bucket.slot(s);
                if (!slot.valid())
                    continue;
                {
                    std::ostringstream os;
                    os << label << ": block " << slot.addr << " leaf "
                       << slot.leaf << " out of range";
                    r.check(slot.leaf < leaves, os.str());
                }
                if (slot.leaf < leaves) {
                    std::ostringstream os;
                    os << label << ": block " << slot.addr
                       << " at bucket (" << level << "," << index
                       << ") is off its path to leaf " << slot.leaf;
                    r.check(oram::pathBucket(slot.leaf, level, L).index ==
                                index,
                            os.str());
                }
                {
                    std::ostringstream os;
                    os << label << ": block " << slot.addr
                       << " duplicated in the tree";
                    r.check(seen.insert(slot.addr).second, os.str());
                }
                if (check_posmap) {
                    std::ostringstream os;
                    os << label << ": block " << slot.addr
                       << " tree leaf disagrees with PosMap";
                    r.check(slot.addr < p.capacityBlocks() &&
                                o.leafOf(slot.addr) == slot.leaf,
                            os.str());
                }
                note(slot.addr, slot.leaf);
            }
        }
    }

    for (const oram::StashEntry &e : o.stash().entries()) {
        {
            std::ostringstream os;
            os << label << ": stash block " << e.addr << " leaf "
               << e.leaf << " out of range";
            r.check(e.leaf < leaves, os.str());
        }
        {
            std::ostringstream os;
            os << label << ": block " << e.addr
               << " in both tree and stash";
            r.check(seen.insert(e.addr).second, os.str());
        }
        if (check_posmap) {
            std::ostringstream os;
            os << label << ": stash block " << e.addr
               << " leaf disagrees with PosMap";
            r.check(e.addr < p.capacityBlocks() &&
                        o.leafOf(e.addr) == e.leaf,
                    os.str());
        }
        note(e.addr, e.leaf);
    }
}

} // namespace

AuditReport
auditPathOram(const oram::PathOram &o, bool check_posmap)
{
    AuditReport r;
    walkPathOram(o, check_posmap, "path_oram", r);
    return r;
}

AuditReport
auditRecursiveOram(const oram::RecursiveOram &o)
{
    AuditReport r;
    // Data tree and PosMap trees alike are driven with explicit
    // leaves (the recursion owns every mapping), so all are audited
    // structurally.
    for (unsigned t = 0; t <= o.posmapLevels(); ++t) {
        std::ostringstream label;
        label << "recursive_oram.tree" << t;
        walkPathOram(o.tree(t), false, label.str(), r);
    }
    return r;
}

namespace
{

/** Run the frontend's global placement audit, labelled @p design. */
void
checkPlacement(const sdimm::IndependentFrontend &o,
               const std::vector<std::vector<oram::StashEntry>> &resident,
               const char *design, AuditReport &r)
{
    for (const std::string &v : o.auditPlacement(resident, &r.checksRun))
        r.violations.push_back(std::string(design) + ": " + v);
}

} // namespace

AuditReport
auditIndependentOram(const sdimm::IndependentOram &o)
{
    AuditReport r;
    const LeafId local_leaves = o.params().perSdimm.numLeaves();

    // (addr, local leaf) per SDIMM across trees, stashes, and queues.
    std::vector<std::vector<oram::StashEntry>> resident(o.numSdimms());
    for (unsigned i = 0; i < o.numSdimms(); ++i) {
        // A quarantined SDIMM legitimately holds stale copies of
        // blocks that were evacuated to survivors; its frozen state
        // is outside every remaining invariant.
        if (o.isQuarantined(i))
            continue;
        const sdimm::SecureBuffer &buf = o.buffer(i);
        std::ostringstream label;
        label << "independent.sdimm" << i;
        std::unordered_map<Addr, LeafId> in_tree;
        walkPathOram(buf.oram(), false, label.str(), r, &in_tree);
        for (const auto &kv : in_tree)
            resident[i].push_back({kv.first, kv.second, {}});

        r.merge(auditTransferQueue(buf.transferQueue()));
        for (const oram::StashEntry &e : buf.transferQueue().entries()) {
            {
                std::ostringstream os;
                os << label.str() << ": queued block " << e.addr
                   << " leaf " << e.leaf << " out of range";
                r.check(e.leaf < local_leaves, os.str());
            }
            resident[i].push_back({e.addr, e.leaf, {}});
        }
    }
    checkPlacement(o, resident, "independent", r);
    return r;
}

AuditReport
auditSplitOram(const sdimm::SplitOram &o, bool check_posmap)
{
    AuditReport r;
    r.violations = o.auditInvariants(check_posmap, &r.checksRun);
    return r;
}

AuditReport
auditIndepSplitOram(const sdimm::IndepSplitOram &o)
{
    AuditReport r;
    std::vector<std::vector<oram::StashEntry>> resident(o.groups());
    for (unsigned g = 0; g < o.groups(); ++g) {
        // Evacuated (quarantined) groups keep stale block copies.
        if (o.isQuarantined(g))
            continue;
        // Each group's tree is driven with leaves from the global
        // PosMap, so its own PosMap is stale: placement is checked
        // globally below instead.
        r.merge(auditSplitOram(o.group(g), false));
        resident[g] = o.group(g).residentBlocks();
    }
    checkPlacement(o, resident, "indep_split", r);
    return r;
}

AuditReport
auditTransferQueue(const sdimm::TransferQueue &q)
{
    AuditReport r;
    const sdimm::TransferQueueStats &s = q.stats();

    {
        std::ostringstream os;
        os << "xfer: conservation broken: " << s.arrivals
           << " arrivals != " << s.services << " services + " << q.size()
           << " queued + " << s.overflows << " overflows";
        r.check(s.arrivals == s.services + q.size() + s.overflows,
                os.str());
    }
    r.check(q.size() <= q.capacity(), "xfer: occupancy over capacity");
    r.check(s.maxOccupancy <= q.capacity(),
            "xfer: recorded max occupancy over capacity");
    r.check(s.overflows == 0 || q.capacity() == 0 ||
                s.maxOccupancy == q.capacity(),
            "xfer: overflow recorded without a full queue");
    r.check(s.forcedDrains == 0 || q.capacity() == 0 ||
                s.maxOccupancy == q.capacity(),
            "xfer: forced drain recorded without a full queue");
    r.check(s.maxOccupancy >= q.size(),
            "xfer: high-water mark below current occupancy");
    r.check((s.arrivals - s.overflows > 0) == (s.maxOccupancy > 0),
            "xfer: high-water mark inconsistent with accepted arrivals");

    // The Section IV-C model: full-queue arrivals ~ the M/M/1/K
    // blocking probability.  A forced drain is exactly an arrival that
    // would have been blocked (the secure buffer runs one extra
    // accessORAM instead of dropping), so it counts against the same
    // bound as a raw overflow.  Allow an order of magnitude of slack
    // (plus one event) before calling the implementation out of line.
    if (s.arrivals > 0 && q.capacity() > 0) {
        const double predicted = analytic::transferQueueOverflow(
            q.drainProb(), static_cast<unsigned>(q.capacity()));
        const double bound =
            10.0 * predicted * static_cast<double>(s.arrivals) + 1.0;
        const std::uint64_t blocked = s.overflows + s.forcedDrains;
        std::ostringstream os;
        os << "xfer: " << blocked << " full-queue arrivals ("
           << s.overflows << " overflows + " << s.forcedDrains
           << " forced drains) in " << s.arrivals
           << " arrivals exceeds 10x the queueing-model bound ("
           << bound << ")";
        r.check(static_cast<double>(blocked) <= bound, os.str());
    }
    return r;
}

AuditSettings
AuditSettings::fromEnv(AuditSettings base)
{
    if (const char *v = std::getenv("SDIMM_AUDIT"))
        base.enabled = std::atoi(v) != 0;
    if (const char *v = std::getenv("SDIMM_AUDIT_INTERVAL")) {
        const long n = std::atol(v);
        if (n > 0)
            base.interval = static_cast<std::uint64_t>(n);
    }
    return base;
}

} // namespace secdimm::verify

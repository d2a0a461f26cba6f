/**
 * @file
 * Functional INDEP-SPLIT (Figure 7e): the address space is
 * partitioned by the top leaf bits across Independent groups, and
 * each group is itself a Split ORAM over several SDIMM slices.  The
 * CPU frontend (IndependentFrontend) is the pure Independent one, with
 * a Split group as its unit: it keeps the global PosMap and runs every
 * access, and moving a block between groups is obfuscated by its one
 * APPEND per group.  This engine supplies the group-level wire steps.
 */

#ifndef SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH
#define SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH

#include <memory>
#include <string>
#include <vector>

#include "sdimm/independent_frontend.hh"
#include "sdimm/sdimm_command.hh"
#include "sdimm/split_oram.hh"

namespace secdimm::sdimm
{

/** Functional combined Independent-of-Splits ORAM; its units are
 *  Split groups. */
class IndepSplitOram final : public IndependentFrontend
{
  public:
    struct Params
    {
        oram::OramParams perGroupTree; ///< Each group's (full) tree.
        unsigned groups = 2;           ///< Independent partitions.
        unsigned slicesPerGroup = 2;   ///< Split width inside a group.
    };

    IndepSplitOram(const Params &params, std::uint64_t seed);

    /** Sum of every group's accessORAM operations. */
    std::uint64_t accessCount() const override;

    unsigned groups() const { return params_.groups; }
    const Params &params() const { return params_; }
    SplitOram &group(unsigned g) { return *groups_[g]; }
    const SplitOram &group(unsigned g) const { return *groups_[g]; }

    /**
     * The visible channel: one ShortCmd per inter-group command,
     * addressed (command type << 8) | group.
     */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        observer_ = fn;
        return 1;
    }

    bool integrityOk() const override;

    /**
     * Arm fault injection across every group plus the inter-group
     * command wire (nullptr disarms).  Under Degraded, quarantine is
     * lifted to the *group* level (group fail-over): an exhausted
     * budget or a watchdog-detected dead group quarantines the whole
     * group and obliviously evacuates its live blocks to the
     * survivors; other policies fail-stop the protocol.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy policy =
                              fault::DegradationPolicy::RetryThenStop)
        override;

    /**
     * Export per-group Split counters (under ".gN") plus the
     * inter-group APPEND split and fail-stop state under @p prefix.
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Fold every group's crypto work into @p t (crypto.*). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        for (const auto &g : groups_)
            g->collectCrypto(t);
    }

  private:
    /** Report one inter-group command to the observer. */
    void recordBus(SdimmCommandType type, unsigned g);

    /**
     * Put one inter-group command on the bus, retrying through
     * injected wire faults (each retransmission is a fresh bus
     * event).  False once the budget is exhausted.
     */
    bool transmitGroupCommand(SdimmCommandType type, unsigned g,
                              const char *site);

    std::optional<BlockData> fetch(unsigned g, Addr addr,
                                   LeafId old_local, LeafId new_local,
                                   oram::OramOp op,
                                   const BlockData *new_data) override;
    void padAccess(unsigned g) override;
    void sendProbe(unsigned g) override;
    std::vector<oram::StashEntry> residentBlocks(unsigned g) override;
    bool appendSlot(unsigned g, const oram::StashEntry *real) override;
    void padAppend(unsigned g) override;

    Params params_;
    std::vector<std::unique_ptr<SplitOram>> groups_;
    TraceEventFn observer_;
    std::uint64_t appendsReal_ = 0;
    std::uint64_t appendsDummy_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEP_SPLIT_ORAM_HH

/**
 * @file
 * Functional Independent ORAM (Section III-C): the address space is
 * partitioned across SDIMMs by the top bits of the (global) leaf ID;
 * each SDIMM runs a complete local Path ORAM.  The CPU keeps the
 * PosMap, the fault policy and the access itself (IndependentFrontend,
 * whose broadcast obfuscates the block's relocation with one APPEND to
 * *every* SDIMM); this engine supplies the sealed wire steps: one
 * ACCESS to the leaf-determined SDIMM, a PROBE poll, the FETCH of the
 * result, and each APPEND.
 */

#ifndef SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH
#define SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "oram/path_oram.hh"
#include "sdimm/independent_frontend.hh"
#include "sdimm/sdimm_command.hh"
#include "sdimm/secure_buffer.hh"

namespace secdimm::sdimm
{

/** Functional distributed Independent ORAM; its units are SDIMMs. */
class IndependentOram final : public IndependentFrontend
{
  public:
    struct Params
    {
        oram::OramParams perSdimm; ///< Local tree of EACH SDIMM.
        unsigned numSdimms = 2;    ///< Power of two.
        std::size_t transferCapacity = 64;
        double drainProb = 0.25;
    };

    IndependentOram(const Params &params, std::uint64_t seed);

    /** Sum of every SDIMM's accessORAM operations. */
    std::uint64_t accessCount() const override;

    /**
     * The visible channel: one ShortCmd per bus command, addressed
     * (command type << 8) | SDIMM, followed by a Transfer of the
     * sealed payload size when the command carries one.
     */
    unsigned attachObserver(const TraceEventFn &fn) override
    {
        observer_ = fn;
        return 1;
    }

    unsigned numSdimms() const { return params_.numSdimms; }
    const Params &params() const { return params_; }
    SecureBuffer &buffer(unsigned i) { return *buffers_[i]; }
    const SecureBuffer &buffer(unsigned i) const { return *buffers_[i]; }

    /** Every tree, link, and queue check passed so far. */
    bool integrityOk() const override;

    /**
     * Arm link/DRAM fault injection and bounded detect-and-retry
     * (nullptr disarms).  @p policy decides what an exhausted retry
     * budget does: RetryThenStop marks the protocol failed
     * (integrityOk() goes false, further data is zeros), Degraded
     * quarantines the offending SDIMM and routes new leaf draws
     * around it, FailStop behaves like a zero-retry budget.
     */
    void setFaultInjector(fault::FaultInjector *inj,
                          fault::DegradationPolicy policy =
                              fault::DegradationPolicy::RetryThenStop)
        override;

    /**
     * Export per-buffer and per-command-type channel-traffic metrics
     * under @p prefix ("sdimm" in the facade; docs/METRICS.md).
     */
    void exportMetrics(util::MetricsRegistry &m,
                       const std::string &prefix) const override;

    /** Fold every buffer's crypto work into @p t (crypto.*). */
    void
    collectCrypto(crypto::CryptoTotals &t) const override
    {
        for (const auto &b : buffers_)
            b->collectCrypto(t);
    }

  private:
    /** Report one bus command to the observer and the totals. */
    void recordBus(SdimmCommandType type, unsigned sdimm,
                   std::size_t bytes);

    /**
     * Ship a sealed uplink message across the (possibly faulty) wire
     * and hand it to @p deliver; retries with a freshly sealed copy
     * from @p reseal until it is accepted or the budget runs out.
     * Returns true on acceptance.
     */
    bool transmitUplink(unsigned sdimm, SdimmCommandType type,
                        const std::function<SealedMessage()> &reseal,
                        const std::function<bool(const SealedMessage &)>
                            &deliver);

    std::optional<BlockData> fetch(unsigned sdimm, Addr addr,
                                   LeafId old_local, LeafId new_local,
                                   oram::OramOp op,
                                   const BlockData *new_data) override;
    void padAccess(unsigned sdimm) override;
    void sendProbe(unsigned sdimm) override;
    std::vector<oram::StashEntry> residentBlocks(unsigned sdimm) override;
    bool appendSlot(unsigned sdimm, const oram::StashEntry *real) override;
    void padAppend(unsigned sdimm) override;

    Params params_;
    std::vector<std::unique_ptr<SecureBuffer>> buffers_;
    TraceEventFn observer_;
    /** Indexed by SdimmCommandType. */
    std::array<std::uint64_t, 9> cmdCounts_{};
    std::array<std::uint64_t, 9> cmdBytes_{};
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEPENDENT_ORAM_HH

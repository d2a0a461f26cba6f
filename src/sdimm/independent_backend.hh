/**
 * @file
 * Timing model of the Independent SDIMM protocol (Section III-C).
 * Each accessORAM the CPU side (SdimmBackend) ships goes to a
 * (random-leaf-determined) SDIMM with an ACCESS long command, runs
 * entirely inside that SDIMM on its PathExecutor, is polled with
 * PROBEs, fetched with FETCH_RESULT, and finished with one APPEND to
 * every SDIMM.  Only those few bursts touch the CPU channel; the
 * 2(Z+1)L path lines stay on the DIMM.
 */

#ifndef SECUREDIMM_SDIMM_INDEPENDENT_BACKEND_HH
#define SECUREDIMM_SDIMM_INDEPENDENT_BACKEND_HH

#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "sdimm/path_executor.hh"
#include "sdimm/sdimm_backend.hh"

namespace secdimm::sdimm
{

/** Independent-protocol MemoryBackend. */
class IndependentBackend final : public SdimmBackend
{
  public:
    IndependentBackend(const SdimmTimingConfig &config,
                       std::uint64_t seed = 1);

    /** Adds sdimm.drain_ops and, with a plan armed, fault.*. */
    void closeRun(Tick end, BackendReport &report) override;

    PathExecutor &executor(unsigned i) { return *executors_[i]; }
    std::uint64_t drainOps() const { return drainOps_; }

  private:
    void startOp(std::uint64_t job_id, Tick ready_at) override;
    Tick finishOp(const OpRef &ref, Tick avail) override;

    /**
     * Watchdog + quarantine + evacuation charge for SDIMMs that died
     * since the last op; returns the tick the channel is free again.
     */
    Tick sweepPermanentFaults(Tick now);

    /** Uniform SDIMM draw avoiding quarantined units (public info). */
    unsigned drawSdimm();

    bool isQuarantined(unsigned sdimm) const
    {
        return sdimm < quarantined_.size() && quarantined_[sdimm];
    }
    unsigned quarantinedCount() const;

    /** Armed injector, or nullptr when the plan is empty. */
    std::unique_ptr<fault::FaultInjector> injector_;
    std::vector<bool> deadHandled_; ///< Watchdog already ran here.
    std::vector<bool> quarantined_;

    std::vector<std::unique_ptr<PathExecutor>> executors_;
    std::uint64_t drainOps_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_INDEPENDENT_BACKEND_HH

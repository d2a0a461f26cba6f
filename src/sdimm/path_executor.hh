/**
 * @file
 * Timing engine of one SDIMM secure buffer running full accessORAM
 * operations locally (the Independent protocol's backend): a serial
 * queue of path operations over the SDIMM's internal DRAM channel.
 * Optionally uses the low-power one-rank-per-path layout with idle
 * rank power-down.
 */

#ifndef SECUREDIMM_SDIMM_PATH_EXECUTOR_HH
#define SECUREDIMM_SDIMM_PATH_EXECUTOR_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "oram/oram_params.hh"
#include "oram/path_stream.hh"
#include "oram/tree_layout.hh"
#include "sdimm/low_power.hh"
#include "sdimm/sdimm_backend.hh"
#include "util/rng.hh"

namespace secdimm::fault
{
class FaultInjector;
}

namespace secdimm::sdimm
{

/** Serial accessORAM executor over one internal DDR channel. */
class PathExecutor final : public SdimmUnit
{
  public:
    /**
     * @param low_power  use the Section III-E rank-major layout with
     *                   idle-rank power-down
     */
    PathExecutor(const std::string &name, const oram::OramParams &params,
                 const dram::TimingParams &timing,
                 const dram::Geometry &geom, bool low_power,
                 std::uint64_t seed);

    /** The op-done tick is when the result is at the buffer. */
    void submitOp(std::uint64_t tag, Tick ready_at) override;

    Tick nextEventAt() const override;
    void advanceTo(Tick now) override;
    bool idle() const override;
    void closeChannels(Tick end, const dram::PowerModel &pm,
                       BackendReport &report) override;

    dram::DramChannel &channel() { return *channel_; }
    const dram::DramChannel &channel() const { return *channel_; }

    /**
     * Arm fault injection (nullptr disarms): op starts may be stalled
     * by the plan's stallCycles (absorbed by the PROBE polling loop),
     * and the internal DRAM channel gets read-burst retries.  Not
     * owned.
     */
    void setFaultInjector(fault::FaultInjector *inj);

  private:
    struct ExecOp
    {
        std::uint64_t tag;
        Tick readyAt;
    };

    void onDramDone(const dram::DramCompletion &c);
    void tryStart();

    oram::OramParams params_;
    oram::TreeLayout layout_;
    std::optional<LowPowerLayout> lowPowerLayout_;
    std::unique_ptr<dram::DramChannel> channel_;
    oram::PathStream stream_;
    Rng rng_;

    std::deque<ExecOp> ops_;
    bool opInFlight_ = false;
    Tick nextOpEarliest_ = 0;
    /** The in-flight op's path lines, read and then written back. */
    std::vector<Addr> pathMeta_;
    std::vector<Addr> pathData_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_PATH_EXECUTOR_HH

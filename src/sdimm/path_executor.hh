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
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "oram/oram_params.hh"
#include "oram/path_stream.hh"
#include "oram/tree_layout.hh"
#include "sdimm/low_power.hh"
#include "trace/memory_backend.hh"
#include "util/rng.hh"

namespace secdimm::fault
{
class FaultInjector;
}

namespace secdimm::sdimm
{

/** Serial accessORAM executor over one internal DDR channel. */
class PathExecutor
{
  public:
    /** Fired when an op's result is available at the buffer. */
    using OpDoneFn = std::function<void(std::uint64_t tag, Tick avail)>;

    /**
     * @param low_power  use the Section III-E rank-major layout with
     *                   idle-rank power-down
     */
    PathExecutor(const std::string &name, const oram::OramParams &params,
                 const dram::TimingParams &timing,
                 const dram::Geometry &geom, bool low_power,
                 std::uint64_t seed);

    void setOpDoneCallback(OpDoneFn fn) { onOpDone_ = std::move(fn); }

    /** Queue one accessORAM; it may start at or after @p ready_at. */
    void submitOp(std::uint64_t tag, Tick ready_at);

    std::uint64_t opsExecuted() const { return opsExecuted_; }

    /** Export ops-executed + queue-depth under @p prefix; the
     *  internal DRAM channel is exported separately ("dram.*"). */
    void
    exportMetrics(util::MetricsRegistry &m,
                  const std::string &prefix) const
    {
        m.setCounter(prefix + ".ops_executed", opsExecuted_);
        m.histogram(prefix + ".queue_depth").merge(queueDepth_);
    }

    Tick nextEventAt() const;
    void advanceTo(Tick now);
    bool idle() const;

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
    OpDoneFn onOpDone_;

    std::deque<ExecOp> ops_;
    bool opInFlight_ = false;
    Tick nextOpEarliest_ = 0;
    /** The in-flight op's path lines, read and then written back. */
    std::vector<Addr> pathMeta_;
    std::vector<Addr> pathData_;
    std::uint64_t opsExecuted_ = 0;
    util::LogHistogram queueDepth_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_PATH_EXECUTOR_HH

/**
 * @file
 * Multi-channel DRAM system: block-interleaves a flat physical block
 * address space across channels (the baseline layout scatters the
 * cache lines of an ORAM bucket across channels, Ren et al. [10]) and
 * provides a single completion stream and event loop.
 */

#ifndef SECUREDIMM_DRAM_DRAM_SYSTEM_HH
#define SECUREDIMM_DRAM_DRAM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "dram/power_model.hh"

namespace secdimm::dram
{

/** A set of identical channels behind one block-interleaved space. */
class DramSystem
{
  public:
    using CompletionFn = DramChannel::CompletionFn;

    DramSystem(const std::string &name, const TimingParams &timing,
               const Geometry &geom, MapPolicy map_policy,
               SchedPolicy sched_policy = SchedPolicy::FrFcfs);

    void setCompletionCallback(CompletionFn fn);

    /** Total 64-byte blocks across all channels. */
    Addr blockCount() const;

    unsigned channelOf(Addr global_block) const;
    Addr localBlockOf(Addr global_block) const;

    bool canEnqueue(Addr global_block, bool write) const;
    void enqueue(std::uint64_t id, Addr global_block, bool write,
                 Tick at);

    Tick nextEventAt() const;
    void advanceTo(Tick now);

    /** Run all channels until idle; returns the final busy tick. */
    Tick drainAll();

    bool idle() const;

    DramChannel &channel(unsigned i) { return *channels_[i]; }
    const DramChannel &channel(unsigned i) const { return *channels_[i]; }
    unsigned channelCount() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /**
     * Report every CAS on every channel to @p fn (non-empty) as a
     * Read or Write of its channel-local block, stamped with its
     * data-burst end.  Returns the channel count.
     */
    unsigned attachObserver(const TimedTraceEventFn &fn);

    /**
     * Close a run at tick @p end: finalize every channel, add its
     * energy (CPU-attached, so off-DIMM I/O) to @p energy and export
     * it as "dram.<channel name>".
     */
    void closeRun(Tick end, EnergyBreakdown &energy,
                  util::MetricsRegistry &m);

    /** Sum of a stat across channels (helper for benches). */
    ChannelStats aggregateStats() const;

  private:
    std::vector<std::unique_ptr<DramChannel>> channels_;
};

} // namespace secdimm::dram

#endif // SECUREDIMM_DRAM_DRAM_SYSTEM_HH

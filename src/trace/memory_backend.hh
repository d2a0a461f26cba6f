/**
 * @file
 * The interface between the CPU/cache model and a memory system.
 * Implementations: the non-secure DRAM baseline, Freecursive ORAM, and
 * the SDIMM Independent / Split / Indep-Split protocols.
 *
 * The contract is event-driven: access() hands over one LLC miss;
 * the backend later reports the finish tick through the completion
 * callback while the caller drives time forward with advanceTo().
 * Around a run, attachObserver() shows the adversary's view and
 * closeRun() fills the run's report, so the simulator and the
 * verifier never need to know which design they hold.
 */

#ifndef SECUREDIMM_TRACE_MEMORY_BACKEND_HH
#define SECUREDIMM_TRACE_MEMORY_BACKEND_HH

#include <functional>

#include "dram/power_model.hh"
#include "util/metrics.hh"
#include "util/types.hh"

namespace secdimm
{

/** What a memory backend reports when a run closes. */
struct BackendReport
{
    dram::EnergyBreakdown energy;   ///< Whole memory system.
    std::uint64_t offDimmLines = 0; ///< Bursts on CPU channels.
    std::uint64_t accessOrams = 0;  ///< Path ops executed anywhere.
    double avgOramsPerMiss = 0.0;   ///< Recursion cost (PLB quality).
    std::uint64_t probes = 0;       ///< PROBE polls (SDIMM designs).

    /** Cycles lost to fault handling: retries, watchdog backoff
     *  waits, and evacuation traffic (0 when no fault plan armed). */
    std::uint64_t recoveryCycles = 0;

    /**
     * Every layer's counters for this run, namespaced core.* /
     * dram.* / oram.* / sdimm.* (docs/METRICS.md).  Benches serialize
     * this into their BENCH_*.json snapshots.
     */
    util::MetricsRegistry metrics;
};

/** Abstract timing model of a memory system under an LLC. */
class MemoryBackend
{
  public:
    /** Called once per completed access with (id, finish tick). */
    using CompletionFn = std::function<void(std::uint64_t, Tick)>;

    virtual ~MemoryBackend() = default;

    /** Register the completion consumer (single consumer). */
    virtual void setCompletionCallback(CompletionFn fn) = 0;

    /** Whether a new access can be admitted right now. */
    virtual bool canAccept() const = 0;

    /**
     * Admit one 64-byte access.
     * @param id       caller-chosen tag echoed at completion
     * @param byteAddr physical byte address (block aligned or not)
     * @param write    store vs load
     * @param now      current simulation tick
     */
    virtual void access(std::uint64_t id, Addr byteAddr, bool write,
                        Tick now) = 0;

    /** Earliest tick at which internal state can change. */
    virtual Tick nextEventAt() const = 0;

    /** Advance internal machinery; may fire completions. */
    virtual void advanceTo(Tick now) = 0;

    /** No queued or in-flight work. */
    virtual bool idle() const = 0;

    /**
     * Report every event on the externally visible channels -- the
     * CPU DRAM channels, or the CPU link buses of the SDIMM designs --
     * to @p fn (non-empty), tagged with the attach point it rode on,
     * 0 to count - 1.  An SDIMM's internal channels are NOT visible
     * to a channel-snooping adversary (that is the point of the
     * design) and are not attached.  Returns the attach-point count.
     */
    virtual unsigned attachObserver(const TimedTraceEventFn &fn) = 0;

    /**
     * Close a run at tick @p end: finalize the channel stats and fill
     * @p report's energy, traffic, accessORAM, probe, recovery and
     * recursion figures and its per-layer metrics.  Call once, after
     * the last access.
     */
    virtual void closeRun(Tick end, BackendReport &report) = 0;
};

} // namespace secdimm

#endif // SECUREDIMM_TRACE_MEMORY_BACKEND_HH

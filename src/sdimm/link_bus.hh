/**
 * @file
 * Timing model of a CPU memory channel carrying SDIMM protocol
 * traffic.  SDIMM commands target the buffer chip, not DRAM banks, so
 * the only resource is the shared command/data bus; this model
 * serializes transfers and accounts the off-DIMM byte count used by
 * the Section IV-B traffic comparison and the I/O energy model.
 *
 * Transfers are byte-granular: a DDR3 bus moves 16 bytes per
 * controller cycle (64 bits x 2 transfers), and burst-chop (BC4)
 * allows 32-byte transactions, so small metadata slices cost less
 * than a full 64-byte burst.
 */

#ifndef SECUREDIMM_SDIMM_LINK_BUS_HH
#define SECUREDIMM_SDIMM_LINK_BUS_HH

#include <cstdint>

#include "dram/timing.hh"
#include "util/bit_utils.hh"
#include "util/metrics.hh"
#include "util/types.hh"

namespace secdimm::sdimm
{

/** Aggregated link traffic, for traffic and energy reporting. */
struct LinkStats
{
    std::uint64_t dataBytes = 0;  ///< Payload bytes moved.
    std::uint64_t transfers = 0;  ///< Data transactions.
    std::uint64_t shortCmds = 0;  ///< Command-bus-only transactions.
    std::uint64_t probes = 0;     ///< PROBE polls (subset of shortCmds).

    /** Equivalent 64-byte lines (Section IV-B comparisons). */
    double
    lineEquivalents() const
    {
        return static_cast<double>(dataBytes) / blockBytes;
    }
};

/** One channel's bus, shared by the SDIMMs behind it. */
class LinkBus
{
  public:
    /**
     * Bus-trace observer: each transaction as seen from the bus pins,
     * everything an adversary snooping the CPU channel learns about
     * SDIMM protocol traffic -- a Transfer with its payload size, or a
     * ShortCmd / Probe (address 0) -- at its completion tick.
     */
    using ObserverFn = TimedTraceEventFn;
    /**
     * @param timing DDR timing (tBURST defines line occupancy).
     * @param short_cmd_cycles bus occupancy of a short command.
     */
    explicit LinkBus(const dram::TimingParams &timing,
                     Cycles short_cmd_cycles = 1)
        : timing_(timing), shortCmdCycles_(short_cmd_cycles)
    {
        // 64-byte burst in tBURST cycles.
        bytesPerCycle_ = blockBytes / timing_.tBURST;
    }

    /**
     * Reserve the bus for a @p bytes transfer starting no earlier
     * than @p earliest; returns the completion tick.  Minimum
     * occupancy is a burst-chop (half burst).
     */
    Tick
    transferBytes(Tick earliest, std::uint64_t bytes)
    {
        const Cycles occupancy = std::max<Cycles>(
            timing_.tBURST / 2, divCeil(bytes, bytesPerCycle_));
        const Tick start = std::max(earliest, busFreeAt_);
        busFreeAt_ = start + occupancy;
        stats_.dataBytes += bytes;
        ++stats_.transfers;
        if (observer_)
            observer_(TraceEventKind::Transfer, bytes, busFreeAt_);
        return busFreeAt_;
    }

    /** Reserve the bus for @p lines full 64-byte bursts. */
    Tick
    transferLines(Tick earliest, std::uint64_t lines)
    {
        return transferBytes(earliest, lines * blockBytes);
    }

    /** Reserve a short (command-only) slot; returns completion tick. */
    Tick
    shortCommand(Tick earliest, bool is_probe = false)
    {
        const Tick start = std::max(earliest, busFreeAt_);
        busFreeAt_ = start + shortCmdCycles_;
        ++stats_.shortCmds;
        if (is_probe)
            ++stats_.probes;
        if (observer_)
            observer_(is_probe ? TraceEventKind::Probe
                               : TraceEventKind::ShortCmd,
                      0, busFreeAt_);
        return busFreeAt_;
    }

    Tick busFreeAt() const { return busFreeAt_; }
    const LinkStats &stats() const { return stats_; }

    /** Register the bus-trace observer; empty fn detaches. */
    void setObserver(ObserverFn fn) { observer_ = std::move(fn); }

    /** Export traffic counters under @p prefix (docs/METRICS.md). */
    void
    exportMetrics(util::MetricsRegistry &m,
                  const std::string &prefix) const
    {
        m.setCounter(prefix + ".data_bytes", stats_.dataBytes);
        m.setCounter(prefix + ".transfers", stats_.transfers);
        m.setCounter(prefix + ".short_cmds", stats_.shortCmds);
        m.setCounter(prefix + ".probes", stats_.probes);
        m.setGauge(prefix + ".line_equivalents",
                   stats_.lineEquivalents());
    }

  private:
    dram::TimingParams timing_;
    Cycles shortCmdCycles_;
    std::uint64_t bytesPerCycle_;
    Tick busFreeAt_ = 0;
    LinkStats stats_;
    ObserverFn observer_;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_LINK_BUS_HH

/**
 * @file
 * The adversary's viewpoint: a passive observer of everything that is
 * externally visible on a memory channel -- DRAM command/address
 * activity (NonSecure / Freecursive backends), SDIMM link-bus
 * transactions (Independent / Split backends), and, for the
 * functional layer, whatever each oram::OramEngine reports (bucket
 * sequences, leaves, SDIMM command streams).  The pair statistics of
 * trace_stats.hh compare such traces; nothing here may peek at
 * plaintext, stash contents, or any other secret state.
 */

#ifndef SECUREDIMM_VERIFY_CHANNEL_OBSERVER_HH
#define SECUREDIMM_VERIFY_CHANNEL_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "oram/oram_engine.hh"
#include "trace/memory_backend.hh"
#include "util/types.hh"

namespace secdimm::verify
{

using secdimm::TraceEventKind;

/** Human-readable kind name. */
const char *traceEventKindName(TraceEventKind kind);

/**
 * One externally visible event.  @p addr carries whatever address-like
 * quantity the channel exposes: the DRAM block address, the transfer
 * byte count, the bucket sequence number, a path's leaf, or an SDIMM
 * command's (type << 8) | unit.  @p point is the attach point that
 * carried it: a timing backend's CPU DRAM channel or link bus; 0 for
 * a functional engine, whose events share one stream.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Read;
    std::uint64_t addr = 0;
    Tick at = 0;
    unsigned point = 0;

    bool operator==(const TraceEvent &) const = default;
};

/**
 * Accumulates the visible trace of one experiment.  Attach points
 * register a callback into the observed component; the observer must
 * outlive every component it is attached to (or the component must
 * not be exercised afterwards).
 */
class ChannelObserver
{
  public:
    void
    record(TraceEventKind kind, std::uint64_t addr, Tick at,
           unsigned point = 0)
    {
        events_.push_back(TraceEvent{kind, addr, at, point});
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    void clear() { events_.clear(); }

    /**
     * Observe a timing backend's externally visible channels (see
     * MemoryBackend::attachObserver): DRAM CAS activity on the CPU
     * channels, or SDIMM link-bus transactions, each event tagged
     * with its attach point.  Returns the backend's attach-point
     * count.
     */
    unsigned attach(MemoryBackend &backend);

    /**
     * Observe a functional protocol's visible channel, e.g. a Path
     * ORAM's bucket read/write sequence (untimed: every event is
     * stamped 0).  Returns the engine's attach-point count.
     */
    unsigned attach(oram::OramEngine &engine);

  private:
    std::vector<TraceEvent> events_;
};

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_CHANNEL_OBSERVER_HH

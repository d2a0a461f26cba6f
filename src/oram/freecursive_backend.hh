/**
 * @file
 * Timing model of the Freecursive ORAM baseline [4]: a CPU-side ORAM
 * controller that turns each LLC miss into 1..n+1 accessORAM
 * operations (via the PLB), each reading and re-writing one tree path
 * over the CPU's DRAM channels.
 *
 * One accessORAM is in flight at a time (the backend is serial, as in
 * the paper); its write-back drains concurrently with the next
 * operation's path read under the FR-FCFS write watermark.
 */

#ifndef SECUREDIMM_ORAM_FREECURSIVE_BACKEND_HH
#define SECUREDIMM_ORAM_FREECURSIVE_BACKEND_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "dram/dram_system.hh"
#include "oram/oram_params.hh"
#include "oram/path_stream.hh"
#include "oram/recursion.hh"
#include "oram/tree_layout.hh"
#include "trace/memory_backend.hh"
#include "util/rng.hh"

namespace secdimm::oram
{

/** Traffic counters for the off-chip access comparisons (Sec IV-B). */
struct OramTrafficStats
{
    std::uint64_t accessOrams = 0;    ///< Path operations executed.
    std::uint64_t channelLines = 0;   ///< 64B bursts on CPU channels.
    std::uint64_t requests = 0;       ///< LLC misses served.
};

/** Freecursive ORAM timing backend. */
class FreecursiveBackend : public MemoryBackend
{
  public:
    FreecursiveBackend(const OramParams &oram,
                       const RecursionParams &recursion,
                       const dram::TimingParams &timing,
                       const dram::Geometry &geom,
                       std::uint64_t seed = 1);

    void setCompletionCallback(CompletionFn fn) override;
    bool canAccept() const override;
    void access(std::uint64_t id, Addr byte_addr, bool write,
                Tick now) override;
    Tick nextEventAt() const override;
    void advanceTo(Tick now) override;
    bool idle() const override;
    unsigned attachObserver(const TimedTraceEventFn &fn) override;
    void closeRun(Tick end, BackendReport &report) override;

    /**
     * Co-resident non-secure traffic (Section III-A advantage 3: VMs
     * without privacy needs share the channel): a plain DRAM access
     * bypassing the ORAM, competing with ORAM lines in the same
     * queues.  Completions arrive on the separate plain callback.
     */
    void accessPlain(std::uint64_t id, Addr byte_addr, bool write,
                     Tick now);
    void setPlainCompletionCallback(CompletionFn fn);
    bool canAcceptPlain(Addr byte_addr, bool write) const;

    const OramParams &oramParams() const { return oram_; }
    const OramTrafficStats &traffic() const { return traffic_; }
    const RecursionEngine &recursion() const { return recursion_; }
    dram::DramSystem &dramSystem() { return sys_; }
    const dram::DramSystem &dramSystem() const { return sys_; }

  private:
    struct Job
    {
        std::uint64_t id;
        unsigned opsLeft;
        Tick readyAt;
        bool opIssued = false;
    };

    /** One CPU channel's path stream and the in-flight op's lines
     *  on that channel (channel-local blocks). */
    struct ChannelShare
    {
        PathStream stream;
        std::vector<Addr> meta;
        std::vector<Addr> data;
    };

    void onDramDone(unsigned channel, const dram::DramCompletion &c);
    void startNextOp(Tick now);
    void respondOp(Tick avail);
    void finishOpReads(Tick reads_done);
    void pump();

    OramParams oram_;
    TreeLayout layout_;
    RecursionEngine recursion_;
    dram::DramSystem sys_;
    Rng rng_;
    CompletionFn onComplete_;
    CompletionFn onPlainComplete_;
    /** DRAM-request id -> caller id for in-flight plain accesses. */
    std::unordered_map<std::uint64_t, std::uint64_t> plainIds_;
    std::uint64_t nextPlainSeq_ = 0;

    std::deque<Job> jobs_;
    static constexpr std::size_t jobCapacity_ = 8;

    bool opInFlight_ = false;
    std::uint64_t opJobId_ = 0;
    std::vector<ChannelShare> shares_;
    /** Scratch for the op's path lines (global line numbers). */
    std::vector<Addr> pathMeta_;
    std::vector<Addr> pathData_;

    OramTrafficStats traffic_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_FREECURSIVE_BACKEND_HH

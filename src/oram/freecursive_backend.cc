#include "oram/freecursive_backend.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::oram
{

namespace
{

/** Marks path-stream request ids; plain accesses use their sequence
 *  number, which never reaches this bit. */
constexpr std::uint64_t streamIdBit = std::uint64_t{1} << 63;

} // namespace

FreecursiveBackend::FreecursiveBackend(const OramParams &oram,
                                       const RecursionParams &recursion,
                                       const dram::TimingParams &timing,
                                       const dram::Geometry &geom,
                                       std::uint64_t seed)
    : oram_(oram),
      layout_(oram.levels, oram.linesPerBucket()),
      recursion_(recursion),
      sys_("freecursive", timing, geom, dram::MapPolicy::RowRankBankCol),
      rng_(seed)
{
    shares_.reserve(sys_.channelCount());
    for (unsigned c = 0; c < sys_.channelCount(); ++c) {
        shares_.push_back(ChannelShare{
            PathStream(sys_.channel(c), streamIdBit,
                       /*hold_data_pass=*/false),
            {},
            {}});
        sys_.channel(c).setCompletionCallback(
            [this, c](const dram::DramCompletion &d) { onDramDone(c, d); });
    }
}

void
FreecursiveBackend::setCompletionCallback(CompletionFn fn)
{
    onComplete_ = std::move(fn);
}

bool
FreecursiveBackend::canAccept() const
{
    return jobs_.size() < jobCapacity_;
}

void
FreecursiveBackend::access(std::uint64_t id, Addr byte_addr, bool write,
                           Tick now)
{
    (void)write; // Reads and writes look the same in ORAM.
    SD_ASSERT(canAccept());
    const std::uint64_t block = byte_addr / blockBytes;
    const unsigned ops = recursion_.opsForAccess(block);
    jobs_.push_back(Job{id, ops, now});
    ++traffic_.requests;
    startNextOp(now);
    pump();
}

void
FreecursiveBackend::startNextOp(Tick now)
{
    if (opInFlight_)
        return;
    // Pick the pending job whose next op is ready soonest.
    Job *job = nullptr;
    for (auto &j : jobs_) {
        if (!j.opIssued && (job == nullptr || j.readyAt < job->readyAt))
            job = &j;
    }
    if (job == nullptr)
        return;
    job->opIssued = true;
    opJobId_ = job->id;
    opInFlight_ = true;
    const Tick start = std::max(now, job->readyAt);
    ++traffic_.accessOrams;

    // The tree occupies lines [0, totalLines); larger configurations
    // wrap (timing-only aliasing, see DESIGN.md).
    pathMeta_.clear();
    pathData_.clear();
    layout_.pathLinesPhased(rng_.nextBelow(oram_.numLeaves()),
                            oram_.cachedLevels, oram_.metadataLines,
                            pathMeta_, pathData_);
    for (auto &sh : shares_) {
        sh.meta.clear();
        sh.data.clear();
    }
    for (Addr line : pathMeta_) {
        const Addr block = line % sys_.blockCount();
        shares_[sys_.channelOf(block)].meta.push_back(
            sys_.localBlockOf(block));
    }
    for (Addr line : pathData_) {
        const Addr block = line % sys_.blockCount();
        shares_[sys_.channelOf(block)].data.push_back(
            sys_.localBlockOf(block));
    }
    for (auto &sh : shares_)
        sh.stream.stageReads(sh.meta, sh.data, start);
    traffic_.channelLines += pathMeta_.size() + pathData_.size();
}

void
FreecursiveBackend::respondOp(Tick avail)
{
    // The CPU-side controller finds the block only once the whole
    // path is in its stash: @p avail is a decrypt after the last
    // read.  This unblocks the LLC (or the next recursion level).
    Job *job = nullptr;
    for (auto &j : jobs_) {
        if (j.id == opJobId_) {
            job = &j;
            break;
        }
    }
    SD_ASSERT(job != nullptr);
    SD_ASSERT(job->opsLeft > 0);
    --job->opsLeft;
    job->opIssued = false;
    if (job->opsLeft == 0) {
        if (onComplete_)
            onComplete_(job->id, avail);
        for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
            if (it->id == opJobId_) {
                jobs_.erase(it);
                break;
            }
        }
    } else {
        job->readyAt = avail;
    }
}

void
FreecursiveBackend::finishOpReads(Tick reads_done)
{
    // Path fully read: stage the write-back and free the controller.
    const Tick wb_at = reads_done + oram_.encLatency;
    for (auto &sh : shares_)
        sh.stream.stageWriteBack(sh.meta, sh.data, wb_at);
    traffic_.channelLines += pathMeta_.size() + pathData_.size();

    opInFlight_ = false;
    startNextOp(reads_done);
    pump();
}

void
FreecursiveBackend::accessPlain(std::uint64_t id, Addr byte_addr,
                                bool write, Tick now)
{
    const Addr block = (byte_addr / blockBytes) % sys_.blockCount();
    const std::uint64_t seq = nextPlainSeq_++;
    plainIds_.emplace(seq, id);
    sys_.enqueue(seq, block, write, now);
}

void
FreecursiveBackend::setPlainCompletionCallback(CompletionFn fn)
{
    onPlainComplete_ = std::move(fn);
}

bool
FreecursiveBackend::canAcceptPlain(Addr byte_addr, bool write) const
{
    const Addr block = (byte_addr / blockBytes) % sys_.blockCount();
    return sys_.canEnqueue(block, write);
}

void
FreecursiveBackend::onDramDone(unsigned channel,
                               const dram::DramCompletion &c)
{
    if ((c.id & streamIdBit) == 0) {
        auto it = plainIds_.find(c.id);
        SD_ASSERT(it != plainIds_.end());
        const std::uint64_t caller_id = it->second;
        plainIds_.erase(it);
        if (onPlainComplete_)
            onPlainComplete_(caller_id, c.doneAt);
        pump();
        return;
    }
    if (shares_[channel].stream.complete(c) == PathStream::Line::Write) {
        pump();
        return;
    }
    if (opInFlight_ &&
        std::all_of(shares_.begin(), shares_.end(),
                    [](const ChannelShare &sh) {
                        return sh.stream.readsDone();
                    })) {
        Tick reads_done = 0;
        for (const auto &sh : shares_)
            reads_done = std::max(reads_done, sh.stream.lastReadDone());
        respondOp(reads_done + oram_.encLatency);
        finishOpReads(reads_done);
    }
    pump();
}

void
FreecursiveBackend::pump()
{
    for (auto &sh : shares_)
        sh.stream.pump();
}

Tick
FreecursiveBackend::nextEventAt() const
{
    return sys_.nextEventAt();
}

void
FreecursiveBackend::advanceTo(Tick now)
{
    sys_.advanceTo(now);
    pump();
}

bool
FreecursiveBackend::idle() const
{
    return jobs_.empty() && !opInFlight_ &&
           std::all_of(shares_.begin(), shares_.end(),
                       [](const ChannelShare &sh) {
                           return sh.stream.idle();
                       }) &&
           sys_.idle();
}

unsigned
FreecursiveBackend::attachObserver(const TimedTraceEventFn &fn)
{
    return sys_.attachObserver(fn);
}

void
FreecursiveBackend::closeRun(Tick end, BackendReport &report)
{
    sys_.closeRun(end, report.energy, report.metrics);
    report.offDimmLines = traffic_.channelLines;
    report.accessOrams = traffic_.accessOrams;
    report.avgOramsPerMiss = recursion_.stats().avgOramsPerRequest();
    util::MetricsRegistry &m = report.metrics;
    m.setCounter("oram.access_orams", traffic_.accessOrams);
    m.setCounter("oram.channel_lines", traffic_.channelLines);
    m.setCounter("oram.requests", traffic_.requests);
    recursion_.exportMetrics(m, "oram.recursion");
}

} // namespace secdimm::oram

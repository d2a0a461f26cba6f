#include "sdimm/path_executor.hh"

#include <algorithm>

#include "fault/fault_injector.hh"

namespace secdimm::sdimm
{

PathExecutor::PathExecutor(const std::string &name,
                           const oram::OramParams &params,
                           const dram::TimingParams &timing,
                           const dram::Geometry &geom, bool low_power,
                           std::uint64_t seed)
    : params_(params),
      layout_(params.levels, params.linesPerBucket()),
      channel_(std::make_unique<dram::DramChannel>(
          name, timing, geom,
          low_power ? dram::MapPolicy::RankRowBankCol
                    : dram::MapPolicy::RowRankBankCol)),
      stream_(*channel_, 0, /*hold_data_pass=*/false),
      rng_(seed)
{
    if (low_power) {
        const Addr region_lines =
            channel_->addressMap().blockCount() / geom.ranksPerChannel;
        lowPowerLayout_.emplace(params, geom.ranksPerChannel,
                                region_lines);
        // Idle ranks drop into precharge power-down quickly; the
        // enqueue-time wake hides the exit latency.
        channel_->setIdlePowerDown(2 * timing.tXPDLL);
    }
    channel_->setCompletionCallback(
        [this](const dram::DramCompletion &c) { onDramDone(c); });
}

void
PathExecutor::setFaultInjector(fault::FaultInjector *inj)
{
    injector_ = inj;
    channel_->setFaultInjector(inj);
}

void
PathExecutor::submitOp(std::uint64_t tag, Tick ready_at)
{
    ops_.push_back(ExecOp{tag, ready_at});
    queueDepth_.sample(ops_.size());
    tryStart();
    stream_.pump();
}

void
PathExecutor::tryStart()
{
    if (opInFlight_ || ops_.empty())
        return;
    opInFlight_ = true;
    ++opsExecuted_;
    Tick start = std::max(ops_.front().readyAt, nextOpEarliest_);
    if (injector_) {
        // A stalled start is absorbed by the CPU's PROBE polling loop:
        // the result is simply not ready for a few more polls.
        const Tick stall = injector_->rollExecutorStall();
        if (stall > 0) {
            start += stall;
            injector_->recordDetected(fault::FaultKind::ExecutorStall);
            injector_->recordRecovered(fault::FaultKind::ExecutorStall,
                                       "executor.start", 1);
        }
    }

    const LeafId leaf = rng_.nextBelow(params_.numLeaves());
    pathMeta_.clear();
    pathData_.clear();
    if (lowPowerLayout_) {
        lowPowerLayout_->pathLinesPhased(leaf, params_.cachedLevels,
                                         params_.metadataLines, pathMeta_,
                                         pathData_);
    } else {
        layout_.pathLinesPhased(leaf, params_.cachedLevels,
                                params_.metadataLines, pathMeta_,
                                pathData_);
    }
    // Metadata pass first; the data pass queues right behind it and
    // issues as the read queue has room (only Split slices hold it
    // until the metadata pass completes).
    stream_.stageReads(pathMeta_, pathData_, start);
}

void
PathExecutor::onDramDone(const dram::DramCompletion &c)
{
    if (stream_.complete(c) != oram::PathStream::Line::Write &&
        opInFlight_ && stream_.readsDone()) {
        // Whole path read: the block is only guaranteed found once
        // every bucket is in the local stash, so the Independent
        // protocol's response fires HERE -- this is the protocol's
        // inherent "high latency, high parallelism" trade-off
        // (Section III-D intro), in contrast to Split's early
        // metadata-driven response.
        const Tick avail = stream_.lastReadDone() + params_.encLatency;
        if (onOpDone_)
            onOpDone_(ops_.front().tag, avail);

        // Stage the write-back, and free the engine for the next
        // operation.
        stream_.stageWriteBack(pathMeta_, pathData_, avail);
        ops_.pop_front();
        opInFlight_ = false;
        nextOpEarliest_ = stream_.lastReadDone();
        tryStart();
    }
    stream_.pump();
}

Tick
PathExecutor::nextEventAt() const
{
    return channel_->nextEventAt();
}

void
PathExecutor::advanceTo(Tick now)
{
    channel_->advanceTo(now);
    stream_.pump();
}

void
PathExecutor::closeChannels(Tick end, const dram::PowerModel &pm,
                            BackendReport &report)
{
    dram::closeChannel(*channel_, pm, end, report.energy, report.metrics);
}

bool
PathExecutor::idle() const
{
    return ops_.empty() && !opInFlight_ && stream_.idle() &&
           channel_->idle();
}

} // namespace secdimm::sdimm

#include "sdimm/split_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::sdimm
{

SplitGroupEngine::SplitGroupEngine(const std::string &name,
                                   const oram::OramParams &tree,
                                   unsigned slices,
                                   std::vector<LinkBus *> buses,
                                   const dram::TimingParams &timing,
                                   const dram::Geometry &geom,
                                   bool low_power, std::uint64_t seed)
    : tree_(tree),
      dataLines_(std::max(1u, tree.bucketBlocks / slices)),
      rng_(seed),
      blockFetchCycles_(timing.cl + timing.tBURST + 2)
{
    SD_ASSERT(slices >= 1);
    SD_ASSERT(buses.size() == slices);

    // Each slice stores (dataLines_ + 1 metadata) lines per bucket.
    oram::OramParams slice_params = tree;
    slice_params.bucketBlocks = dataLines_;
    slice_params.metadataLines = 1;
    if (!low_power)
        layout_.emplace(tree.levels, dataLines_ + 1);

    slices_.reserve(slices);
    for (unsigned i = 0; i < slices; ++i) {
        auto channel = std::make_unique<dram::DramChannel>(
            name + ".slice" + std::to_string(i), timing, geom,
            low_power ? dram::MapPolicy::RankRowBankCol
                      : dram::MapPolicy::RowRankBankCol);
        if (low_power)
            channel->setIdlePowerDown(2 * timing.tXPDLL);
        channel->setCompletionCallback(
            [this, i](const dram::DramCompletion &c) {
                onDramDone(i, c);
            });
        // The slice's metadata share goes to the CPU before its data
        // pass leaves DRAM, so the data reads wait for it.
        oram::PathStream stream(*channel, 0, /*hold_data_pass=*/true);
        slices_.push_back(Slice{std::move(channel), stream, buses[i]});
    }

    if (low_power) {
        const Addr region_lines =
            slices_[0].channel->addressMap().blockCount() /
            geom.ranksPerChannel;
        lowPowerLayout_.emplace(slice_params, geom.ranksPerChannel,
                                region_lines);
    }
}

std::uint64_t
SplitGroupEngine::listBytesPerSlice() const
{
    // Per bucket: Z compact (tag, leaf) pairs (8Z B), the counter
    // (8 B), and the eviction schedule entries (~2Z B), split across
    // slices.
    const std::uint64_t per_bucket =
        8ULL * tree_.bucketBlocks + 8 + 2ULL * tree_.bucketBlocks;
    return divCeil(per_bucket * tree_.dramLevels(),
                   static_cast<std::uint64_t>(slices_.size()));
}

void
SplitGroupEngine::submitOp(std::uint64_t tag, Tick ready_at)
{
    ops_.push_back(PendingOp{tag, ready_at});
    queueDepth_.sample(ops_.size());
    tryStart();
}

void
SplitGroupEngine::tryStart()
{
    if (opInFlight_ || ops_.empty())
        return;
    opInFlight_ = true;
    responseSent_ = false;
    ++opsExecuted_;
    const Tick start = std::max(ops_.front().readyAt, groupFreeAt_);
    const LeafId leaf = rng_.nextBelow(tree_.numLeaves());
    pathMeta_.clear();
    pathData_.clear();
    if (lowPowerLayout_) {
        lowPowerLayout_->pathLinesPhased(leaf, tree_.cachedLevels, 1,
                                         pathMeta_, pathData_);
    } else {
        layout_->pathLinesPhased(leaf, tree_.cachedLevels, 1, pathMeta_,
                                 pathData_);
    }

    for (auto &sl : slices_) {
        sl.bus->shortCommand(start); // FETCH_DATA.
        sl.metaAtCpu = start;
        sl.stream.stageReads(pathMeta_, pathData_, start);
        sl.stream.pump();
    }
}

void
SplitGroupEngine::onDramDone(unsigned slice, const dram::DramCompletion &c)
{
    Slice &sl = slices_[slice];
    const oram::PathStream::Line kind = sl.stream.complete(c);
    if (kind == oram::PathStream::Line::Meta) {
        // Relay this metadata share to the CPU: each slice holds 1/S
        // of the bucket's (tags, leaves, counter) bytes -- compact
        // 4-byte tags and leaves as in hardware ORAM controllers --
        // so a burst-chopped transaction suffices.
        const std::uint64_t share_bytes =
            divCeil(8ULL * tree_.bucketBlocks + 8,
                    static_cast<std::uint64_t>(slices_.size()));
        sl.metaAtCpu = std::max(
            sl.metaAtCpu, sl.bus->transferBytes(c.doneAt, share_bytes));
        maybeRespond();
    }
    if (kind != oram::PathStream::Line::Write)
        maybeFinishReads();
    sl.stream.pump();
}

void
SplitGroupEngine::maybeRespond()
{
    if (!opInFlight_ || responseSent_)
        return;
    for (const auto &sl : slices_) {
        if (!sl.stream.metaDone())
            return;
    }
    responseSent_ = true;

    // CPU reassembles tags/leaves/counters, finds the block, and
    // issues FETCH_STASH; each slice fetches the block's line
    // on demand (row still open from the metadata pass) and returns
    // its 1/S piece over the bus.
    Tick meta_at = 0;
    for (const auto &sl : slices_)
        meta_at = std::max(meta_at, sl.metaAtCpu);
    const Tick t_meta = meta_at + tree_.encLatency;

    const std::uint64_t piece_bytes =
        divCeil(blockBytes, slices_.size());
    Tick fetched = t_meta;
    for (auto &sl : slices_) {
        sl.bus->shortCommand(t_meta);
        fetched = std::max(
            fetched, sl.bus->transferBytes(t_meta + blockFetchCycles_,
                                           piece_bytes));
    }
    const Tick result = fetched + tree_.encLatency;

    // RECEIVE_LIST: eviction schedule + counters + new metadata.
    const std::uint64_t list_bytes = listBytesPerSlice();
    listDoneAt_ = result;
    for (auto &sl : slices_) {
        listDoneAt_ = std::max(
            sl.bus->transferBytes(result, list_bytes), listDoneAt_);
    }

    if (onOpDone_)
        onOpDone_(ops_.front().tag, result);
}

void
SplitGroupEngine::maybeFinishReads()
{
    if (!opInFlight_)
        return;
    // Only READ state gates the op: write-backs of earlier ops may
    // still be staged behind a full write queue, and they drain on
    // their own (write completions never re-evaluate this check).
    Tick reads_done = 0;
    for (const auto &sl : slices_) {
        if (!sl.stream.readsDone())
            return;
        reads_done = std::max(reads_done, sl.stream.lastReadDone());
    }
    SD_ASSERT(responseSent_);

    // Local write-back of the path (data + metadata shares) once the
    // eviction list has arrived and every piece is in the stash.
    const Tick wb_at =
        std::max(listDoneAt_, reads_done) + tree_.encLatency;
    for (auto &sl : slices_) {
        sl.stream.stageWriteBack(pathMeta_, pathData_, wb_at);
        sl.stream.pump();
    }

    ops_.pop_front();
    opInFlight_ = false;
    groupFreeAt_ = reads_done;
    tryStart();
}

Tick
SplitGroupEngine::nextEventAt() const
{
    Tick best = tickNever;
    for (const auto &sl : slices_)
        best = std::min(best, sl.channel->nextEventAt());
    return best;
}

void
SplitGroupEngine::advanceTo(Tick now)
{
    for (auto &sl : slices_) {
        sl.channel->advanceTo(now);
        sl.stream.pump();
    }
}

bool
SplitGroupEngine::idle() const
{
    if (!ops_.empty() || opInFlight_)
        return false;
    for (const auto &sl : slices_) {
        if (!sl.stream.idle() || !sl.channel->idle())
            return false;
    }
    return true;
}

void
SplitGroupEngine::closeChannels(Tick end, const dram::PowerModel &pm,
                                BackendReport &report)
{
    for (auto &sl : slices_) {
        dram::closeChannel(*sl.channel, pm, end, report.energy,
                           report.metrics);
    }
}

} // namespace secdimm::sdimm

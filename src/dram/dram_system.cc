#include "dram/dram_system.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::dram
{

DramSystem::DramSystem(const std::string &name,
                       const TimingParams &timing, const Geometry &geom,
                       MapPolicy map_policy, SchedPolicy sched_policy)
{
    SD_ASSERT(geom.channels >= 1);
    for (unsigned c = 0; c < geom.channels; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            name + ".ch" + std::to_string(c), timing, geom, map_policy,
            sched_policy));
    }
}

void
DramSystem::setCompletionCallback(CompletionFn fn)
{
    for (auto &ch : channels_)
        ch->setCompletionCallback(fn);
}

Addr
DramSystem::blockCount() const
{
    return channels_[0]->addressMap().blockCount() * channels_.size();
}

unsigned
DramSystem::channelOf(Addr global_block) const
{
    return static_cast<unsigned>(global_block % channels_.size());
}

Addr
DramSystem::localBlockOf(Addr global_block) const
{
    return global_block / channels_.size();
}

bool
DramSystem::canEnqueue(Addr global_block, bool write) const
{
    return channels_[channelOf(global_block)]->canEnqueue(write);
}

void
DramSystem::enqueue(std::uint64_t id, Addr global_block, bool write,
                    Tick at)
{
    channels_[channelOf(global_block)]->enqueue(
        id, localBlockOf(global_block), write, at);
}

Tick
DramSystem::nextEventAt() const
{
    Tick best = tickNever;
    for (const auto &ch : channels_)
        best = std::min(best, ch->nextEventAt());
    return best;
}

void
DramSystem::advanceTo(Tick now)
{
    for (auto &ch : channels_)
        ch->advanceTo(now);
}

Tick
DramSystem::drainAll()
{
    Tick end = 0;
    while (!idle()) {
        const Tick next = nextEventAt();
        SD_ASSERT(next != tickNever);
        advanceTo(next);
    }
    for (auto &ch : channels_)
        end = std::max(end, ch->curTick());
    return end;
}

bool
DramSystem::idle() const
{
    return std::all_of(channels_.begin(), channels_.end(),
                       [](const auto &ch) { return ch->idle(); });
}

unsigned
DramSystem::attachObserver(const TimedTraceEventFn &fn)
{
    for (unsigned c = 0; c < channels_.size(); ++c) {
        channels_[c]->setCasObserver(
            [fn, c](const DramRequest &req, Tick data_end) {
                fn(c, req.write ? TraceEventKind::Write
                                : TraceEventKind::Read,
                   req.addr, data_end);
            });
    }
    return channelCount();
}

void
DramSystem::closeRun(Tick end, EnergyBreakdown &energy,
                     util::MetricsRegistry &m)
{
    const PowerModel pm(channels_[0]->timing(), channels_[0]->geometry(),
                        /*on_dimm_io=*/false);
    for (auto &ch : channels_)
        closeChannel(*ch, pm, end, energy, m);
}

ChannelStats
DramSystem::aggregateStats() const
{
    ChannelStats agg;
    for (const auto &ch : channels_) {
        const ChannelStats &s = ch->stats();
        agg.activates += s.activates;
        agg.precharges += s.precharges;
        agg.reads += s.reads;
        agg.writes += s.writes;
        agg.rowHits += s.rowHits;
        agg.rowMisses += s.rowMisses;
        agg.refreshes += s.refreshes;
        agg.powerDownEntries += s.powerDownEntries;
        agg.powerUps += s.powerUps;
        agg.rankSwitches += s.rankSwitches;
        agg.readLatencySum += s.readLatencySum;
        agg.readLatencyCount += s.readLatencyCount;
    }
    return agg;
}

} // namespace secdimm::dram

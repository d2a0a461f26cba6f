#include "oram/nonsecure_backend.hh"

namespace secdimm::oram
{

NonSecureBackend::NonSecureBackend(const dram::TimingParams &timing,
                                   const dram::Geometry &geom,
                                   dram::MapPolicy map_policy)
    : sys_("nonsecure", timing, geom, map_policy)
{
    sys_.setCompletionCallback([this](const dram::DramCompletion &c) {
        if (onComplete_)
            onComplete_(c.id, c.doneAt);
    });
}

void
NonSecureBackend::setCompletionCallback(CompletionFn fn)
{
    onComplete_ = std::move(fn);
}

bool
NonSecureBackend::canAccept() const
{
    // Conservative: require room in every channel (the target channel
    // depends on the address the caller has not shown us yet).
    for (unsigned c = 0; c < sys_.channelCount(); ++c) {
        if (!sys_.channel(c).canEnqueue(false) ||
            !sys_.channel(c).canEnqueue(true)) {
            return false;
        }
    }
    return true;
}

void
NonSecureBackend::access(std::uint64_t id, Addr byte_addr, bool write,
                         Tick now)
{
    const Addr block = (byte_addr / blockBytes) % sys_.blockCount();
    sys_.enqueue(id, block, write, now);
}

Tick
NonSecureBackend::nextEventAt() const
{
    return sys_.nextEventAt();
}

void
NonSecureBackend::advanceTo(Tick now)
{
    sys_.advanceTo(now);
}

bool
NonSecureBackend::idle() const
{
    return sys_.idle();
}

unsigned
NonSecureBackend::attachObserver(const TimedTraceEventFn &fn)
{
    return sys_.attachObserver(fn);
}

void
NonSecureBackend::closeRun(Tick end, BackendReport &report)
{
    sys_.closeRun(end, report.energy, report.metrics);
    const dram::ChannelStats agg = sys_.aggregateStats();
    report.offDimmLines = agg.reads + agg.writes;
}

} // namespace secdimm::oram

#include "sdimm/sdimm_backend.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::sdimm
{

SdimmBackend::SdimmBackend(const SdimmTimingConfig &config,
                           std::uint64_t seed, std::string unit_prefix)
    : config_(config),
      rng_(seed),
      unitPrefix_(std::move(unit_prefix)),
      recursion_(config.recursion)
{
    SD_ASSERT(config_.cpuChannels >= 1);
    for (unsigned c = 0; c < config_.cpuChannels; ++c)
        buses_.push_back(std::make_unique<LinkBus>(config_.timing));
}

void
SdimmBackend::addUnit(SdimmUnit &unit)
{
    units_.push_back(&unit);
    unit.setOpDoneCallback(
        [this](std::uint64_t tag, Tick at) { onOpDone(tag, at); });
}

void
SdimmBackend::setCompletionCallback(CompletionFn fn)
{
    onComplete_ = std::move(fn);
}

bool
SdimmBackend::canAccept() const
{
    return opsLeft_.size() < jobCapacity_;
}

void
SdimmBackend::access(std::uint64_t id, Addr byte_addr, bool write,
                     Tick now)
{
    (void)write; // Reads and writes look the same in ORAM.
    SD_ASSERT(canAccept());
    const std::uint64_t block = byte_addr / blockBytes;
    opsLeft_.emplace(id, recursion_.opsForAccess(block));
    startOp(id, now);
}

void
SdimmBackend::submitOp(const OpRef &ref, Tick ready_at)
{
    const std::uint64_t tag = nextTag_++;
    ops_.emplace(tag, ref);
    units_[ref.unit]->submitOp(tag, ready_at);
}

void
SdimmBackend::onOpDone(std::uint64_t tag, Tick at)
{
    const auto it = ops_.find(tag);
    SD_ASSERT(it != ops_.end());
    const OpRef ref = it->second;
    ops_.erase(it);
    if (ref.drain)
        return;

    const Tick done = finishOp(ref, at);
    const auto job = opsLeft_.find(ref.jobId);
    SD_ASSERT(job != opsLeft_.end() && job->second > 0);
    if (--job->second > 0) {
        startOp(ref.jobId, done);
        return;
    }
    opsLeft_.erase(job);
    if (onComplete_)
        onComplete_(ref.jobId, done);
}

Tick
SdimmBackend::nextEventAt() const
{
    Tick best = tickNever;
    for (const SdimmUnit *u : units_)
        best = std::min(best, u->nextEventAt());
    return best;
}

void
SdimmBackend::advanceTo(Tick now)
{
    for (SdimmUnit *u : units_)
        u->advanceTo(now);
}

bool
SdimmBackend::idle() const
{
    return opsLeft_.empty() &&
           std::all_of(units_.begin(), units_.end(),
                       [](const SdimmUnit *u) { return u->idle(); });
}

unsigned
SdimmBackend::attachObserver(const TimedTraceEventFn &fn)
{
    for (unsigned b = 0; b < buses_.size(); ++b)
        buses_[b]->setObserver(fn, b);
    return busCount();
}

std::uint64_t
SdimmBackend::offDimmLines() const
{
    double lines = 0;
    for (const auto &b : buses_)
        lines += b->stats().lineEquivalents();
    return static_cast<std::uint64_t>(lines + 0.5);
}

void
SdimmBackend::closeRun(Tick end, BackendReport &report)
{
    util::MetricsRegistry &m = report.metrics;
    const dram::PowerModel on_dimm(config_.timing, config_.sdimmGeom,
                                   /*on_dimm_io=*/true);
    for (unsigned u = 0; u < units_.size(); ++u) {
        units_[u]->closeChannels(end, on_dimm, report);
        report.accessOrams += units_[u]->opsExecuted();
        units_[u]->exportMetrics(m, unitPrefix_ + std::to_string(u));
    }

    // Link traffic pays off-DIMM I/O energy but touches no DRAM bank.
    report.offDimmLines = offDimmLines();
    const dram::PowerModel off_dimm(config_.timing, config_.sdimmGeom,
                                    /*on_dimm_io=*/false);
    report.energy.ioNj += off_dimm.ioEnergyPerBurstNj() *
                          static_cast<double>(report.offDimmLines);
    for (unsigned b = 0; b < busCount(); ++b) {
        report.probes += buses_[b]->stats().probes;
        buses_[b]->exportMetrics(m, "sdimm.bus" + std::to_string(b));
    }
    report.avgOramsPerMiss = recursion_.stats().avgOramsPerRequest();
    recursion_.exportMetrics(m, "oram.recursion");
}

} // namespace secdimm::sdimm

#include "sdimm/independent_backend.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::sdimm
{

IndependentBackend::IndependentBackend(const SdimmTimingConfig &config,
                                       std::uint64_t seed)
    : SdimmBackend(config, seed, "sdimm.s")
{
    SD_ASSERT(config_.numSdimms >= 1);
    for (unsigned i = 0; i < config_.numSdimms; ++i) {
        executors_.push_back(std::make_unique<PathExecutor>(
            "sdimm" + std::to_string(i), config_.perSdimm,
            config_.timing, config_.sdimmGeom, config_.lowPower,
            seed * 7919 + i));
        addUnit(*executors_.back());
    }
    if (config_.faultPlan.enabled()) {
        injector_ =
            std::make_unique<fault::FaultInjector>(config_.faultPlan);
        for (auto &e : executors_)
            e->setFaultInjector(injector_.get());
        deadHandled_.assign(config_.numSdimms, false);
        quarantined_.assign(config_.numSdimms, false);
    }
}

unsigned
IndependentBackend::quarantinedCount() const
{
    unsigned n = 0;
    for (const bool q : quarantined_)
        n += q ? 1 : 0;
    return n;
}

unsigned
IndependentBackend::drawSdimm()
{
    // The op's leaf is uniformly random, so the target SDIMM is too;
    // redraws consult only the (public) quarantine set.
    unsigned sdimm =
        static_cast<unsigned>(rng_.nextBelow(config_.numSdimms));
    while (isQuarantined(sdimm) &&
           quarantinedCount() < config_.numSdimms) {
        sdimm = static_cast<unsigned>(rng_.nextBelow(config_.numSdimms));
    }
    return sdimm;
}

Tick
IndependentBackend::sweepPermanentFaults(Tick now)
{
    const fault::FaultPlan &plan = injector_->plan();
    for (unsigned i = 0; i < config_.numSdimms; ++i) {
        if (deadHandled_[i] || !injector_->unitDead(i))
            continue;
        deadHandled_[i] = true;
        // Watchdog: PROBE the silent SDIMM on its bus, waiting the
        // capped exponential backoff between polls.
        LinkBus &bus = busOf(i);
        Tick t = now;
        for (unsigned p = 0; p < plan.watchdogMaxProbes; ++p) {
            bus.shortCommand(t, true);
            const std::uint64_t wait = plan.watchdogBackoff(p);
            t += wait;
            injector_->recordWatchdogProbe(wait);
        }
        injector_->markPermanentDetected(i);
        const std::string site = "timing.watchdog.sdimm" + std::to_string(i);
        if (config_.policy != fault::DegradationPolicy::Degraded ||
            quarantinedCount() + 1 >= config_.numSdimms) {
            // No fail-over possible (or allowed): the cost is the
            // watchdog itself; ops keep targeting the unit (the model
            // has no data to lose, only cycles to account).
            injector_->recordUnrecovered(fault::FaultKind::WatchdogTimeout,
                                         site, plan.watchdogMaxProbes);
            continue;
        }
        injector_->recordRecovered(fault::FaultKind::WatchdogTimeout,
                                   site, plan.watchdogMaxProbes);
        quarantined_[i] = true;
        injector_->recordQuarantine();
        // Oblivious evacuation charge: one geometry-sized dummy-padded
        // APPEND stream (slots x full append burst) per surviving bus,
        // modeled as one bulk transfer each.
        const std::uint64_t slots = config_.perSdimm.capacityBlocks();
        Tick done = t;
        for (unsigned k = 0; k < config_.numSdimms; ++k) {
            if (quarantined_[k])
                continue;
            done = std::max(done,
                            busOf(k).transferBytes(t, slots * (8 + 81)));
        }
        injector_->recordEvacuation(slots, slots * config_.numSdimms);
        t = done;
        injector_->addRecoveryCycles(t > now ? t - now : 0);
        now = t;
    }
    return now;
}

void
IndependentBackend::startOp(std::uint64_t job_id, Tick ready_at)
{
    if (injector_) {
        injector_->noteAccess();
        ready_at = sweepPermanentFaults(ready_at);
    }
    const unsigned sdimm = drawSdimm();
    if (injector_) {
        const std::uint64_t pen = injector_->unitLatencyPenalty(sdimm);
        if (pen) {
            // Degraded-latency unit: the op is simply late.
            injector_->addDegradedLatencyCycles(pen);
            ready_at += pen;
        }
    }

    // ACCESS long command: header + one (possibly dummy) block.
    const Tick issued = busOf(sdimm).transferBytes(ready_at, 8 + 89);
    submitOp(OpRef{job_id, sdimm, issued, /*drain=*/false},
             issued + config_.perSdimm.encLatency);
}

Tick
IndependentBackend::finishOp(const OpRef &ref, Tick avail)
{
    LinkBus &bus = busOf(ref.unit);

    // PROBE polling: the CPU polls every probeInterval cycles from op
    // issue; the positive probe lands at the first poll tick >= avail.
    const Cycles interval = config_.probeInterval;
    std::uint64_t polls = 1;
    if (avail > ref.issuedAt)
        polls = (avail - ref.issuedAt + interval - 1) / interval;
    const Tick observed = ref.issuedAt + polls * interval;
    for (std::uint64_t p = 0; p < polls; ++p)
        bus.shortCommand(ref.issuedAt + (p + 1) * interval, true);

    // FETCH_RESULT: one burst carrying the (sealed) block.
    const Tick fetched = bus.transferBytes(observed, 8 + 65);
    const Tick done = fetched + config_.perSdimm.encLatency;

    // APPEND to every SDIMM (one real, rest dummies).
    Tick appends_done = fetched;
    for (unsigned i = 0; i < config_.numSdimms; ++i) {
        appends_done = std::max(appends_done,
                                busOf(i).transferBytes(fetched, 8 + 81));
    }

    // Occasional extra drain accessORAM at the APPEND destination
    // (Section IV-C overflow avoidance).
    if (rng_.nextBool(config_.drainProb)) {
        submitOp(OpRef{0, drawSdimm(), appends_done, /*drain=*/true},
                 appends_done);
        ++drainOps_;
    }
    return done;
}

void
IndependentBackend::closeRun(Tick end, BackendReport &report)
{
    SdimmBackend::closeRun(end, report);
    report.metrics.setCounter("sdimm.drain_ops", drainOps_);
    if (injector_) {
        injector_->exportMetrics(report.metrics, "fault");
        report.recoveryCycles = injector_->recoveryCycles();
    }
}

} // namespace secdimm::sdimm

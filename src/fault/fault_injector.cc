#include "fault/fault_injector.hh"

#include <algorithm>

namespace secdimm::fault
{

namespace
{

/// Cap on the retained FaultEvent log; enough for any test to see the
/// whole schedule of a 10k-access campaign at ~1% rates.
constexpr std::size_t kMaxEvents = 4096;

std::size_t
idx(FaultKind k)
{
    return static_cast<std::size_t>(k);
}

} // namespace

const char *
kindName(FaultKind k)
{
    switch (k) {
    case FaultKind::DramBitFlip:
        return "dram_bit_flip";
    case FaultKind::LinkCorrupt:
        return "link_corrupt";
    case FaultKind::LinkDrop:
        return "link_drop";
    case FaultKind::LinkDelay:
        return "link_delay";
    case FaultKind::ExecutorStall:
        return "executor_stall";
    case FaultKind::QueuePerturb:
        return "queue_perturb";
    case FaultKind::WatchdogTimeout:
        return "watchdog_timeout";
    case FaultKind::ByzantineCorrupt:
        return "byzantine_corrupt";
    case FaultKind::ByzantineLostWrite:
        return "byzantine_lost_write";
    case FaultKind::ByzantineEquivocate:
        return "byzantine_equivocate";
    case FaultKind::ByzantineConvict:
        return "byzantine_convict";
    }
    return "unknown";
}

const char *
byzantineKindName(ByzantineFaultKind k)
{
    switch (k) {
    case ByzantineFaultKind::PersistentCorrupt:
        return "persistent_corrupt";
    case ByzantineFaultKind::DutyCycleLiar:
        return "duty_cycle_liar";
    case ByzantineFaultKind::LostWrite:
        return "lost_write";
    case ByzantineFaultKind::Equivocate:
        return "equivocate";
    }
    return "unknown";
}

const char *
permanentKindName(PermanentFaultKind k)
{
    switch (k) {
    case PermanentFaultKind::StuckAt:
        return "stuck_at";
    case PermanentFaultKind::HardDeath:
        return "hard_death";
    case PermanentFaultKind::DegradedLatency:
        return "degraded_latency";
    }
    return "unknown";
}

const char *
policyName(DegradationPolicy p)
{
    switch (p) {
    case DegradationPolicy::FailStop:
        return "fail_stop";
    case DegradationPolicy::RetryThenStop:
        return "retry_then_stop";
    case DegradationPolicy::Degraded:
        return "degraded";
    }
    return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed),
      // Derived, not shared: byzantine duty-cycle draws must never
      // advance the transient stream (or vice versa), so arming a
      // liar leaves every other fault position bit-identical.
      byzRng_(plan.seed * 0x9e3779b97f4a7c15ull + 0xb12au)
{
    auto addSite = [this](const PermanentFault &f, bool correlated) {
        PermanentState s;
        s.fault = f;
        s.correlated = correlated;
        /*
         * StuckAt and DegradedLatency are live from boot; a HardDeath
         * activates during noteAccess().  Only the dead kinds open a
         * WatchdogTimeout ledger episode -- DegradedLatency is a
         * timing-only fault and stays out of the detected/recovered
         * identity entirely.
         */
        s.active = f.kind != PermanentFaultKind::HardDeath;
        if (f.kind == PermanentFaultKind::StuckAt)
            recordInjected(FaultKind::WatchdogTimeout);
        if (correlated && s.active)
            ++correlatedActivations_;
        permanent_.push_back(s);
    };

    for (const PermanentFault &f : plan_.permanentFaults)
        addSite(f, false);

    /*
     * A correlated group is scripted data, exactly like the
     * independent sites: member j of group g expands into one
     * permanent site activating at atAccess + j * cascadeGapAccesses.
     * The expansion order is the plan order, so the activation
     * schedule stays a pure function of the plan.
     */
    correlatedGroups_ = plan_.correlatedFailures.size();
    for (const CorrelatedFailure &g : plan_.correlatedFailures) {
        correlatedUnits_ += g.units.size();
        for (std::size_t j = 0; j < g.units.size(); ++j) {
            PermanentFault f;
            f.kind = g.kind;
            f.unit = g.units[j];
            f.atAccess = g.atAccess + j * g.cascadeGapAccesses;
            f.latencyCycles = g.latencyCycles;
            addSite(f, true);
        }
    }
}

void
FaultInjector::noteAccess()
{
    ++accessIndex_;
    for (PermanentState &s : permanent_) {
        if (s.active || s.fault.kind != PermanentFaultKind::HardDeath)
            continue;
        if (accessIndex_ > s.fault.atAccess) {
            s.active = true;
            recordInjected(FaultKind::WatchdogTimeout);
            if (s.correlated)
                ++correlatedActivations_;
        }
    }
}

bool
FaultInjector::unitDead(unsigned unit) const
{
    for (const PermanentState &s : permanent_) {
        if (s.active && s.fault.unit == unit &&
            s.fault.kind != PermanentFaultKind::DegradedLatency)
            return true;
    }
    return false;
}

std::uint64_t
FaultInjector::unitLatencyPenalty(unsigned unit) const
{
    std::uint64_t cycles = 0;
    for (const PermanentState &s : permanent_) {
        if (s.active && s.fault.unit == unit &&
            s.fault.kind == PermanentFaultKind::DegradedLatency)
            cycles += s.fault.latencyCycles;
    }
    return cycles;
}

void
FaultInjector::markPermanentDetected(unsigned unit)
{
    for (PermanentState &s : permanent_) {
        if (!s.active || s.watchdogDetected || s.fault.unit != unit ||
            s.fault.kind == PermanentFaultKind::DegradedLatency)
            continue;
        s.watchdogDetected = true;
        recordDetected(FaultKind::WatchdogTimeout);
        return;
    }
}

bool
FaultInjector::UnitTracker::note(double sample, double alpha,
                                 double threshold, double min_total,
                                 unsigned hysteresis)
{
    const double a = std::clamp(alpha, 0.0, 1.0);
    ewma = a * sample + (1.0 - a) * ewma;
    total += sample;
    if (threshold <= 0.0 || done)
        return false;
    if (ewma > threshold && total >= min_total) {
        ++aboveStreak;
        if (!candidate && aboveStreak >= hysteresis) {
            candidate = true;
            return true;
        }
    } else {
        // Hysteresis: a dip below the bar resets the streak, so a
        // transient spike never retires a healthy unit and honest
        // transients never convict a noisy-but-honest one.
        aboveStreak = 0;
        candidate = false;
    }
    return false;
}

const FaultInjector::UnitTracker &
FaultInjector::trackerOf(const std::map<unsigned, UnitTracker> &trackers,
                         unsigned unit)
{
    static const UnitTracker idle;
    const auto it = trackers.find(unit);
    return it == trackers.end() ? idle : it->second;
}

void
FaultInjector::noteUnitTax(unsigned unit, std::uint64_t cycles)
{
    // Retirement has no evidence floor.
    if (retire_[unit].note(static_cast<double>(cycles),
                           plan_.retireEwmaAlpha,
                           static_cast<double>(
                               plan_.retireTaxThresholdCycles),
                           0.0, plan_.retireHysteresisAccesses))
        ++retireCandidates_;
}

bool
FaultInjector::retirementDue(unsigned unit) const
{
    return trackerOf(retire_, unit).due();
}

void
FaultInjector::markRetired(unsigned unit)
{
    UnitTracker &r = retire_[unit];
    if (r.done)
        return;
    r.done = true;
    ++retiredUnits_;
}

bool
FaultInjector::unitRetired(unsigned unit) const
{
    return trackerOf(retire_, unit).done;
}

double
FaultInjector::unitTaxEwma(unsigned unit) const
{
    return trackerOf(retire_, unit).ewma;
}

const ByzantineFault *
FaultInjector::activeByzantine(unsigned unit,
                               ByzantineFaultKind kind) const
{
    for (const ByzantineFault &b : plan_.byzantineFaults) {
        if (b.unit == unit && b.kind == kind &&
            accessIndex_ > b.fromAccess)
            return &b;
    }
    return nullptr;
}

bool
FaultInjector::unitByzantine(unsigned unit) const
{
    for (const ByzantineFault &b : plan_.byzantineFaults) {
        if (b.unit == unit && accessIndex_ > b.fromAccess)
            return true;
    }
    return false;
}

bool
FaultInjector::rollByzantineCorrupt(unsigned unit)
{
    /*
     * Whether a draw happens depends only on the plan and the access
     * index (both public), so the byzantine stream position is a pure
     * function of (plan, opportunity index) -- same discipline as the
     * transient rolls, on a separate stream.
     */
    if (activeByzantine(unit, ByzantineFaultKind::PersistentCorrupt)) {
        recordInjected(FaultKind::ByzantineCorrupt);
        return true;
    }
    const ByzantineFault *liar =
        activeByzantine(unit, ByzantineFaultKind::DutyCycleLiar);
    if (!liar)
        return false;
    const bool lie = byzRng_.nextBool(liar->dutyCycle);
    if (lie)
        recordInjected(FaultKind::ByzantineCorrupt);
    return lie;
}

bool
FaultInjector::rollByzantineLostWrite(unsigned unit)
{
    const ByzantineFault *b =
        activeByzantine(unit, ByzantineFaultKind::LostWrite);
    if (!b)
        return false;
    const bool drop = byzRng_.nextBool(b->dutyCycle);
    if (drop)
        recordInjected(FaultKind::ByzantineLostWrite);
    return drop;
}

bool
FaultInjector::rollByzantineEquivocate(unsigned unit)
{
    const ByzantineFault *b =
        activeByzantine(unit, ByzantineFaultKind::Equivocate);
    if (!b)
        return false;
    const bool lie = byzRng_.nextBool(b->dutyCycle);
    if (lie)
        recordInjected(FaultKind::ByzantineEquivocate);
    return lie;
}

void
FaultInjector::noteLostWrite(std::uint64_t addr, unsigned unit)
{
    auto &entry = lostWrites_[addr];
    entry.first = unit;
    ++entry.second;
}

void
FaultInjector::clearLostWrite(std::uint64_t addr)
{
    lostWrites_.erase(addr);
}

std::optional<std::pair<unsigned, unsigned>>
FaultInjector::takeLostWrite(std::uint64_t addr)
{
    const auto it = lostWrites_.find(addr);
    if (it == lostWrites_.end())
        return std::nullopt;
    const auto pending = it->second;
    lostWrites_.erase(it);
    return pending;
}

void
FaultInjector::noteMistrust(unsigned unit, double failures)
{
    if (mistrust_[unit].note(failures, plan_.mistrustEwmaAlpha,
                             plan_.mistrustConvictThreshold,
                             static_cast<double>(plan_.mistrustMinEvidence),
                             plan_.mistrustHysteresisAccesses))
        ++mistrustCandidates_;
}

bool
FaultInjector::convictionDue(unsigned unit) const
{
    return trackerOf(mistrust_, unit).due();
}

void
FaultInjector::markConvicted(unsigned unit)
{
    UnitTracker &s = mistrust_[unit];
    if (s.done)
        return;
    s.done = true;
    ++convictedUnits_;
    // One ByzantineConvict episode: injected+detected here, paired by
    // the caller with exactly one recovered or unrecovered record.
    recordInjected(FaultKind::ByzantineConvict);
    recordDetected(FaultKind::ByzantineConvict);
}

bool
FaultInjector::unitConvicted(unsigned unit) const
{
    return trackerOf(mistrust_, unit).done;
}

double
FaultInjector::mistrustScore(unsigned unit) const
{
    return trackerOf(mistrust_, unit).ewma;
}

bool
FaultInjector::rollDramBitFlip()
{
    const bool hit = rng_.nextBool(plan_.dramBitFlipRate);
    if (hit)
        recordInjected(FaultKind::DramBitFlip);
    return hit;
}

WireOutcome
FaultInjector::rollLinkFault()
{
    /*
     * One draw per message regardless of outcome, so the stream
     * position -- and hence every later fault -- depends only on how
     * many messages were sent, never on their contents.
     */
    const double u = rng_.nextDouble();
    double acc = plan_.linkCorruptRate;
    if (u < acc) {
        recordInjected(FaultKind::LinkCorrupt);
        return WireOutcome::Corrupted;
    }
    acc += plan_.linkDropRate;
    if (u < acc) {
        recordInjected(FaultKind::LinkDrop);
        return WireOutcome::Dropped;
    }
    acc += plan_.linkDelayRate;
    if (u < acc) {
        recordInjected(FaultKind::LinkDelay);
        return WireOutcome::Delayed;
    }
    return WireOutcome::Delivered;
}

std::uint64_t
FaultInjector::rollExecutorStall()
{
    if (!rng_.nextBool(plan_.executorStallRate))
        return 0;
    recordInjected(FaultKind::ExecutorStall);
    return plan_.stallCycles;
}

bool
FaultInjector::rollQueuePerturb()
{
    const bool hit = rng_.nextBool(plan_.queuePerturbRate);
    if (hit)
        recordInjected(FaultKind::QueuePerturb);
    return hit;
}

void
FaultInjector::corruptBuffer(std::vector<std::uint8_t> &bytes)
{
    corruptBuffer(bytes.data(), bytes.size());
}

void
FaultInjector::corruptBuffer(std::uint8_t *bytes, std::size_t len)
{
    if (len == 0)
        return;
    const std::uint64_t bit = rng_.nextBelow(len * 8);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void
FaultInjector::recordInjected(FaultKind k)
{
    ++injected_[idx(k)];
}

void
FaultInjector::recordDetected(FaultKind k)
{
    ++detected_[idx(k)];
}

void
FaultInjector::logEvent(FaultKind k, const std::string &site,
                        unsigned attempts, bool recoveredFlag)
{
    if (events_.size() >= kMaxEvents)
        events_.erase(events_.begin());
    FaultEvent e;
    e.kind = k;
    e.site = site;
    e.attempts = attempts;
    e.recovered = recoveredFlag;
    e.latency = attempts;
    events_.push_back(std::move(e));
}

void
FaultInjector::recordRecovered(FaultKind k, const std::string &site,
                               unsigned attempts)
{
    ++recovered_[idx(k)];
    retryCounts_.sample(attempts);
    recoveryLatency_.sample(attempts);
    logEvent(k, site, attempts, true);
}

void
FaultInjector::recordUnrecovered(FaultKind k, const std::string &site,
                                 unsigned attempts)
{
    ++unrecoveredTotal_;
    retryCounts_.sample(attempts);
    logEvent(k, site, attempts, false);
}

void
FaultInjector::recordDegraded()
{
    ++degraded_;
}

void
FaultInjector::recordWatchdogProbe(std::uint64_t backoff_cycles)
{
    ++watchdogProbes_;
    watchdogWait_ += backoff_cycles;
    recoveryCycles_ += backoff_cycles;
}

void
FaultInjector::recordQuarantine()
{
    ++quarantined_;
}

void
FaultInjector::recordZeroSurvivorFailStop()
{
    ++zeroSurvivorStops_;
}

void
FaultInjector::recordEvacuation(std::uint64_t blocks, std::uint64_t appends)
{
    evacuatedBlocks_ += blocks;
    evacAppends_ += appends;
}

void
FaultInjector::addDegradedLatencyCycles(std::uint64_t cycles)
{
    degradedCycles_ += cycles;
}

void
FaultInjector::addRecoveryCycles(std::uint64_t cycles)
{
    recoveryCycles_ += cycles;
}

std::uint64_t
FaultInjector::injected(FaultKind k) const
{
    return injected_[idx(k)];
}

std::uint64_t
FaultInjector::detected(FaultKind k) const
{
    return detected_[idx(k)];
}

std::uint64_t
FaultInjector::recovered(FaultKind k) const
{
    return recovered_[idx(k)];
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t t = 0;
    for (auto v : injected_)
        t += v;
    return t;
}

std::uint64_t
FaultInjector::detectedTotal() const
{
    std::uint64_t t = 0;
    for (auto v : detected_)
        t += v;
    return t;
}

std::uint64_t
FaultInjector::recoveredTotal() const
{
    std::uint64_t t = 0;
    for (auto v : recovered_)
        t += v;
    return t;
}

void
FaultInjector::exportMetrics(util::MetricsRegistry &m,
                             const std::string &prefix) const
{
    m.setCounter(prefix + ".injected.total", injectedTotal());
    m.setCounter(prefix + ".detected.total", detectedTotal());
    m.setCounter(prefix + ".recovered.total", recoveredTotal());
    m.setCounter(prefix + ".unrecovered.total", unrecoveredTotal_);
    m.setCounter(prefix + ".degraded_accesses", degraded_);
    m.setCounter(prefix + ".watchdog_probes", watchdogProbes_);
    m.setCounter(prefix + ".watchdog_backoff_cycles", watchdogWait_);
    m.setCounter(prefix + ".quarantined_sdimms", quarantined_);
    m.setCounter(prefix + ".evacuated_blocks", evacuatedBlocks_);
    m.setCounter(prefix + ".evacuation_appends", evacAppends_);
    m.setCounter(prefix + ".degraded_latency_cycles", degradedCycles_);
    m.setCounter(prefix + ".recovery_cycles", recoveryCycles_);
    /*
     * Chaos-layer counters are emitted only when nonzero so quiet
     * (uncorrelated, no-retirement) campaigns keep their exact
     * pre-chaos metric surface.
     */
    if (correlatedGroups_) {
        m.setCounter(prefix + ".correlated_groups", correlatedGroups_);
        m.setCounter(prefix + ".correlated_units", correlatedUnits_);
        m.setCounter(prefix + ".correlated_activations",
                     correlatedActivations_);
    }
    if (zeroSurvivorStops_)
        m.setCounter(prefix + ".zero_survivor_failstops",
                     zeroSurvivorStops_);
    if (!plan_.byzantineFaults.empty())
        m.setCounter(prefix + ".byzantine_units",
                     plan_.byzantineFaults.size());
    if (mistrustCandidates_)
        m.setCounter("mistrust.candidates", mistrustCandidates_);
    if (convictedUnits_)
        m.setCounter("mistrust.convictions", convictedUnits_);
    for (const auto &[unit, s] : mistrust_) {
        if (s.ewma > 0.0)
            m.setGauge("mistrust.unit" + std::to_string(unit) +
                           ".score",
                       s.ewma);
    }
    if (retireCandidates_)
        m.setCounter("retire.candidates", retireCandidates_);
    if (retiredUnits_)
        m.setCounter("retire.retired_units", retiredUnits_);
    for (const auto &[unit, r] : retire_) {
        if (r.ewma > 0.0)
            m.setGauge("retire.unit" + std::to_string(unit) +
                           ".tax_ewma",
                       r.ewma);
    }
    for (unsigned i = 0; i < kNumFaultKinds; ++i) {
        const auto k = static_cast<FaultKind>(i);
        const std::string base = prefix + "." + kindName(k);
        /*
         * Zero-count kinds are omitted (same convention as the
         * per-command bus metrics) to keep quiet campaigns small.
         */
        if (injected_[i])
            m.setCounter(base + ".injected", injected_[i]);
        if (detected_[i])
            m.setCounter(base + ".detected", detected_[i]);
        if (recovered_[i])
            m.setCounter(base + ".recovered", recovered_[i]);
    }
    if (retryCounts_.count())
        m.histogram(prefix + ".retry_count").merge(retryCounts_);
    if (recoveryLatency_.count())
        m.histogram(prefix + ".recovery_latency").merge(recoveryLatency_);
}

} // namespace secdimm::fault

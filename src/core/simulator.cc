#include "core/simulator.hh"

#include <cstdlib>

#include "verify/channel_observer.hh"

namespace secdimm::core
{

namespace
{

/** Export the run-level counters every figure is built from. */
void
exportCoreMetrics(SimResult &r)
{
    util::MetricsRegistry &m = r.metrics;
    m.setCounter("core.cycles", r.core.cycles);
    m.setCounter("core.instructions", r.core.instructions);
    m.setCounter("core.l1_misses", r.core.l1Misses);
    m.setCounter("core.llc_misses", r.core.llcMisses);
    m.setCounter("core.llc_writebacks", r.core.llcWritebacks);
    m.setGauge("core.ipc", r.core.ipc());
    m.setGauge("core.cycles_per_miss", r.cyclesPerMiss());
    m.setCounter("core.off_dimm_lines", r.offDimmLines);
    m.setCounter("core.access_orams", r.accessOrams);
    m.setCounter("core.probes", r.probes);
    m.setCounter("core.recovery_cycles", r.recoveryCycles);
    m.setGauge("core.orams_per_miss", r.avgOramsPerMiss);
    m.setGauge("core.energy.act_pre_nj", r.energy.actPreNj);
    m.setGauge("core.energy.rd_wr_nj", r.energy.rdWrNj);
    m.setGauge("core.energy.io_nj", r.energy.ioNj);
    m.setGauge("core.energy.background_nj", r.energy.backgroundNj);
    m.setGauge("core.energy.refresh_nj", r.energy.refreshNj);
    m.setGauge("core.energy.total_nj", r.energy.totalNj());
}

} // namespace

SimResult
runWorkload(const SystemConfig &config,
            const trace::WorkloadProfile &profile,
            const SimLengths &lengths, std::uint64_t seed,
            verify::ChannelObserver *observer)
{
    trace::TraceGenerator gen(profile, seed ^ 0xabcdef);
    return runWorkloadFromSource(config, gen, lengths, seed, observer);
}

SimResult
runWorkloadFromSource(const SystemConfig &config,
                      trace::RecordSource &source,
                      const SimLengths &lengths, std::uint64_t seed,
                      verify::ChannelObserver *observer)
{
    auto backend = buildBackend(config, seed);
    if (observer != nullptr)
        observer->attach(*backend);

    trace::CacheModel llc(2ULL << 20, 8); // Table II: 2MB, 8-way.
    trace::CoreParams core_params;
    trace::CoreModel core(core_params, llc, *backend);

    SimResult result;
    result.core = core.run(source, lengths.warmupRecords,
                           lengths.measureRecords);
    backend->closeRun(result.core.cycles, result);
    exportCoreMetrics(result);
    return result;
}

SimLengths
benchLengths(std::uint64_t default_measure, std::uint64_t default_warmup)
{
    SimLengths lengths;
    lengths.measureRecords = default_measure;
    lengths.warmupRecords = default_warmup;
    if (const char *v = std::getenv("SDIMM_BENCH_ACCESSES"))
        lengths.measureRecords = std::strtoull(v, nullptr, 0);
    if (const char *v = std::getenv("SDIMM_BENCH_WARMUP"))
        lengths.warmupRecords = std::strtoull(v, nullptr, 0);
    return lengths;
}

} // namespace secdimm::core

/**
 * @file
 * Top-level simulation driver: runs one synthetic workload through
 * the Table II core + LLC into a configured memory backend and
 * collects the metrics every figure of the paper reports (execution
 * cycles, memory energy by component, off-DIMM traffic, accessORAM
 * counts).
 */

#ifndef SECUREDIMM_CORE_SIMULATOR_HH
#define SECUREDIMM_CORE_SIMULATOR_HH

#include <string>

#include "core/system_config.hh"
#include "trace/core_model.hh"
#include "trace/memory_backend.hh"
#include "trace/workload.hh"

namespace secdimm::verify
{
class ChannelObserver;
}

namespace secdimm::core
{

/**
 * Everything one simulation run produces: the backend's report
 * (MemoryBackend::closeRun) plus the core's counters, which are also
 * exported as core.* metrics.
 */
struct SimResult : BackendReport
{
    trace::CoreRunResult core;

    double
    cyclesPerMiss() const
    {
        return core.llcMisses
                   ? static_cast<double>(core.cycles) / core.llcMisses
                   : 0.0;
    }
};

/** Simulation lengths (paper: 1M warm-up + 1M measured). */
struct SimLengths
{
    std::uint64_t warmupRecords = 20000;
    std::uint64_t measureRecords = 4000;
};

/**
 * Run @p profile on @p config.  Deterministic for a given seed.
 *
 * If @p observer is non-null it is attached to the backend's
 * externally visible channels (verify::ChannelObserver::attach, through
 * MemoryBackend::attachObserver) before the first access, so the
 * recorded trace covers the whole run; the observer must outlive the
 * call.
 */
SimResult runWorkload(const SystemConfig &config,
                      const trace::WorkloadProfile &profile,
                      const SimLengths &lengths, std::uint64_t seed,
                      verify::ChannelObserver *observer = nullptr);

/**
 * Same as runWorkload(), but replaying records pulled from an
 * arbitrary @p source (application-level streams such as the KV
 * workload adapter) instead of the built-in synthetic generators.
 * @p seed still pins the backend's internal randomness.
 */
SimResult runWorkloadFromSource(const SystemConfig &config,
                                trace::RecordSource &source,
                                const SimLengths &lengths,
                                std::uint64_t seed,
                                verify::ChannelObserver *observer = nullptr);

/**
 * Bench-scaling knob: reads SDIMM_BENCH_ACCESSES (measured records)
 * and SDIMM_BENCH_WARMUP from the environment, falling back to the
 * given defaults (see DESIGN.md section 7).
 */
SimLengths benchLengths(std::uint64_t default_measure = 4000,
                        std::uint64_t default_warmup = 20000);

} // namespace secdimm::core

#endif // SECUREDIMM_CORE_SIMULATOR_HH

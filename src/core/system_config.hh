/**
 * @file
 * The design points of the paper's evaluation (Figure 7 plus the
 * baselines), Table II parameter defaults, and a factory building the
 * matching MemoryBackend.
 */

#ifndef SECUREDIMM_CORE_SYSTEM_CONFIG_HH
#define SECUREDIMM_CORE_SYSTEM_CONFIG_HH

#include <memory>
#include <string>

#include "fault/fault_plan.hh"
#include "fault/fault_types.hh"
#include "oram/oram_params.hh"
#include "trace/memory_backend.hh"

#include "dram/timing.hh"

namespace secdimm::core
{

/** Evaluated memory-system organizations. */
enum class DesignPoint
{
    NonSecure,    ///< Plain DRAM (Figure 6 / 10 reference).
    PathOram,     ///< CPU-side Path ORAM (no recursion) baseline.
    Freecursive,  ///< CPU-side Freecursive ORAM baseline [4].
    Indep2,       ///< Figure 7a: 1 channel, 2 SDIMMs, Independent.
    Split2,       ///< Figure 7b: 1 channel, 2-way Split.
    Indep4,       ///< Figure 7c: 2 channels, 4 SDIMMs, Independent.
    Split4,       ///< Figure 7d: 2 channels, 4-way Split.
    IndepSplit,   ///< Figure 7e: 2x Independent groups of 2-way Split.
};

/** Full description of one simulated system. */
struct SystemConfig
{
    DesignPoint design = DesignPoint::Freecursive;
    unsigned cpuChannels = 1;

    /** Global ORAM tree depth (leaves at this level). */
    unsigned treeLevels = 24;

    /** Levels cached in controller/buffer SRAM (0 = no ORAM cache). */
    unsigned cachedLevels = 7;

    oram::RecursionParams recursion;

    dram::TimingParams timing;
    dram::Geometry cpuGeom;    ///< Geometry of CPU-attached DRAM.
    dram::Geometry sdimmGeom;  ///< Geometry inside one SDIMM.

    bool lowPower = true;      ///< Section III-E for SDIMM designs.
    double drainProb = 0.1;    ///< See SdimmTimingConfig::drainProb.

    /** Fault campaign forwarded to the backend (only the Independent
     *  designs model it, and buildBackend refuses it elsewhere; an
     *  empty plan changes nothing anywhere). */
    fault::FaultPlan faultPlan;
    fault::DegradationPolicy degradationPolicy =
        fault::DegradationPolicy::Degraded;

    /** SDIMMs (or Split slices) in this design. */
    unsigned numSdimms() const;

    /** Independent partitions (Split groups) in this design. */
    unsigned groups() const;

    /** Global tree parameters. */
    oram::OramParams globalTree() const;
};

/**
 * Canonical configuration for a design point with Table II
 * parameters.
 * @param tree_levels     global ORAM depth (Figure 11 sweeps this)
 * @param cached_levels   ORAM-cache depth (0 disables)
 */
SystemConfig makeConfig(DesignPoint design, unsigned tree_levels = 24,
                        unsigned cached_levels = 7);

/**
 * Construct the timing backend for a configuration: the one place
 * that lists the timing designs.  Throws std::invalid_argument, naming
 * the design, for a non-empty fault plan on a design whose timing
 * model does not inject faults (all but INDEP-2 and INDEP-4).
 */
std::unique_ptr<MemoryBackend> buildBackend(const SystemConfig &config,
                                            std::uint64_t seed);

/** Display name matching the paper's figures. */
const char *designName(DesignPoint design);

} // namespace secdimm::core

#endif // SECUREDIMM_CORE_SYSTEM_CONFIG_HH

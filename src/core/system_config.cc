#include "core/system_config.hh"

#include <stdexcept>

#include "oram/freecursive_backend.hh"
#include "oram/nonsecure_backend.hh"
#include "sdimm/independent_backend.hh"
#include "sdimm/split_backend.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::core
{

unsigned
SystemConfig::numSdimms() const
{
    switch (design) {
      case DesignPoint::NonSecure:
      case DesignPoint::PathOram:
      case DesignPoint::Freecursive:
        return 0;
      case DesignPoint::Indep2:
      case DesignPoint::Split2:
        return 2;
      case DesignPoint::Indep4:
      case DesignPoint::Split4:
      case DesignPoint::IndepSplit:
        return 4;
    }
    return 0;
}

unsigned
SystemConfig::groups() const
{
    switch (design) {
      case DesignPoint::Split2:
      case DesignPoint::Split4:
        return 1;
      case DesignPoint::IndepSplit:
        return 2;
      default:
        return 0;
    }
}

oram::OramParams
SystemConfig::globalTree() const
{
    oram::OramParams p;
    p.levels = treeLevels;
    p.cachedLevels = cachedLevels;
    return p;
}

SystemConfig
makeConfig(DesignPoint design, unsigned tree_levels,
           unsigned cached_levels)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.treeLevels = tree_levels;
    cfg.cachedLevels = cached_levels;
    cfg.timing = dram::ddr3_1600();

    // Table II channel counts: single-channel designs are the
    // Freecursive-1ch baseline, INDEP-2 and SPLIT-2; 2-channel designs
    // are Freecursive-2ch, INDEP-4, SPLIT-4, INDEP-SPLIT.  NonSecure
    // and Freecursive channel counts are overridden by callers for
    // the 1ch/2ch variants (default 1).
    switch (design) {
      case DesignPoint::Indep4:
      case DesignPoint::Split4:
      case DesignPoint::IndepSplit:
        cfg.cpuChannels = 2;
        break;
      default:
        cfg.cpuChannels = 1;
        break;
    }

    // CPU-attached DRAM (Table II: 8 ranks/channel, 8 banks, 8KB
    // rows); rows sized so the address space covers the tree.
    cfg.cpuGeom.ranksPerChannel = 8;
    cfg.cpuGeom.banksPerRank = 8;
    cfg.cpuGeom.rowsPerBank = 1u << 17;
    cfg.cpuGeom.channels = cfg.cpuChannels;

    // One SDIMM: quad-rank, same devices.
    cfg.sdimmGeom.channels = 1;
    cfg.sdimmGeom.ranksPerChannel = 4;
    cfg.sdimmGeom.banksPerRank = 8;
    cfg.sdimmGeom.rowsPerBank = 1u << 17;

    return cfg;
}

namespace
{

/** Per-SDIMM (or per-group) tree for the distributed designs. */
oram::OramParams
partitionedTree(const SystemConfig &cfg, unsigned partitions)
{
    oram::OramParams p = cfg.globalTree();
    const unsigned shrink = floorLog2(partitions);
    SD_ASSERT(p.levels > shrink);
    p.levels -= shrink;
    // The global ORAM cache covers the top of the global tree; the
    // partition's share is what remains below the partition level.
    p.cachedLevels =
        p.cachedLevels > shrink ? p.cachedLevels - shrink : 0;
    return p;
}

sdimm::SdimmTimingConfig
sdimmConfig(const SystemConfig &cfg, unsigned partitions)
{
    sdimm::SdimmTimingConfig scfg;
    scfg.perSdimm = partitionedTree(cfg, partitions);
    scfg.recursion = cfg.recursion;
    scfg.numSdimms = cfg.numSdimms();
    scfg.cpuChannels = cfg.cpuChannels;
    scfg.timing = cfg.timing;
    scfg.sdimmGeom = cfg.sdimmGeom;
    scfg.lowPower = cfg.lowPower;
    scfg.drainProb = cfg.drainProb;
    scfg.faultPlan = cfg.faultPlan;
    scfg.policy = cfg.degradationPolicy;
    return scfg;
}

} // namespace

std::unique_ptr<MemoryBackend>
buildBackend(const SystemConfig &cfg, std::uint64_t seed)
{
    // Only the Independent designs model faults in the timing layer
    // (docs/FAULTS.md); any other design would drop the plan and
    // report a clean run.
    const bool models_faults = cfg.design == DesignPoint::Indep2 ||
                               cfg.design == DesignPoint::Indep4;
    if (cfg.faultPlan.enabled() && !models_faults) {
        throw std::invalid_argument(
            std::string("fault plan given for ") + designName(cfg.design) +
            ", but the timing model injects faults only into INDEP-2 "
            "and INDEP-4");
    }

    switch (cfg.design) {
      case DesignPoint::NonSecure:
        return std::make_unique<oram::NonSecureBackend>(cfg.timing,
                                                        cfg.cpuGeom);
      case DesignPoint::PathOram: {
        // Plain Path ORAM: the whole PosMap lives on-chip, so every
        // LLC miss is exactly one accessORAM (opsForAccess == 1).
        oram::RecursionParams flat = cfg.recursion;
        flat.posmapLevels = 0;
        return std::make_unique<oram::FreecursiveBackend>(
            cfg.globalTree(), flat, cfg.timing, cfg.cpuGeom, seed);
      }
      case DesignPoint::Freecursive:
        return std::make_unique<oram::FreecursiveBackend>(
            cfg.globalTree(), cfg.recursion, cfg.timing, cfg.cpuGeom,
            seed);
      case DesignPoint::Indep2:
      case DesignPoint::Indep4:
        return std::make_unique<sdimm::IndependentBackend>(
            sdimmConfig(cfg, cfg.numSdimms()), seed);
      case DesignPoint::Split2:
      case DesignPoint::Split4:
        return std::make_unique<sdimm::SplitBackend>(
            sdimmConfig(cfg, 1), /*groups=*/1, seed);
      case DesignPoint::IndepSplit:
        return std::make_unique<sdimm::SplitBackend>(
            sdimmConfig(cfg, cfg.groups()), cfg.groups(), seed);
    }
    panic("unknown design point");
}

const char *
designName(DesignPoint design)
{
    switch (design) {
      case DesignPoint::NonSecure: return "NonSecure";
      case DesignPoint::PathOram: return "PathORAM";
      case DesignPoint::Freecursive: return "Freecursive";
      case DesignPoint::Indep2: return "INDEP-2";
      case DesignPoint::Split2: return "SPLIT-2";
      case DesignPoint::Indep4: return "INDEP-4";
      case DesignPoint::Split4: return "SPLIT-4";
      case DesignPoint::IndepSplit: return "INDEP-SPLIT";
    }
    return "?";
}

} // namespace secdimm::core

/**
 * @file
 * DRAM energy model in the style of the Micron power calculator
 * (IDD-current based), the tool the paper uses for its energy results.
 * Computes activate/precharge, read/write core, I/O + termination,
 * background (per power state), and refresh energy from the counters a
 * DramChannel accumulates.
 *
 * The I/O term distinguishes off-DIMM transfers (full-length
 * motherboard trace, full termination) from on-DIMM transfers between
 * the SDIMM secure buffer and its DRAM chips (short trace); localizing
 * shuffle traffic on the DIMM is one of the paper's two energy levers,
 * the other being rank power-down.
 */

#ifndef SECUREDIMM_DRAM_POWER_MODEL_HH
#define SECUREDIMM_DRAM_POWER_MODEL_HH

#include <vector>

#include "dram/channel.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"
#include "util/metrics.hh"

namespace secdimm::dram
{

/** Per-device IDD currents (mA) and voltage, DDR3-1600 x8 class. */
struct DramCurrents
{
    double vdd = 1.5;
    double idd0 = 95.0;   ///< One-bank ACT-PRE cycling.
    double idd2p = 12.0;  ///< Precharge power-down (slow exit).
    double idd2n = 42.0;  ///< Precharge standby.
    double idd3n = 45.0;  ///< Active standby.
    double idd4r = 180.0; ///< Read burst.
    double idd4w = 185.0; ///< Write burst.
    double idd5 = 215.0;  ///< Refresh.
};

/** I/O energy per bit moved, picojoules. */
struct IoEnergyParams
{
    /**
     * CPU <-> DIMM over the motherboard channel: full-length trace
     * with on-die termination at both ends (~15-25 pJ/bit in the
     * DDR3 literature).
     */
    double offDimmPjPerBit = 18.0;
    /** Secure buffer <-> DRAM chips: short on-DIMM trace. */
    double onDimmPjPerBit = 4.0;
};

/** Energy totals in nanojoules. */
struct EnergyBreakdown
{
    double actPreNj = 0.0;
    double rdWrNj = 0.0;
    double ioNj = 0.0;
    double backgroundNj = 0.0;
    double refreshNj = 0.0;

    double
    totalNj() const
    {
        return actPreNj + rdWrNj + ioNj + backgroundNj + refreshNj;
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
};

/** Computes channel energy from activity counters and rank timelines. */
class PowerModel
{
  public:
    /**
     * @param on_dimm_io  true for SDIMM-internal channels, whose data
     *                    bursts never leave the DIMM.
     */
    PowerModel(const TimingParams &timing, const Geometry &geom,
               bool on_dimm_io,
               const DramCurrents &currents = DramCurrents{},
               const IoEnergyParams &io = IoEnergyParams{});

    /**
     * Total energy for a channel whose ranks have been finalized to
     * the end of simulation (DramChannel::finalizeStats).
     */
    EnergyBreakdown compute(const ChannelStats &stats,
                            const std::vector<RankState> &ranks) const;

    /** Energy of a single 64-byte burst's I/O (bench helper). */
    double ioEnergyPerBurstNj() const;

  private:
    TimingParams timing_;
    Geometry geom_;
    bool onDimmIo_;
    DramCurrents cur_;
    IoEnergyParams io_;
};

/**
 * Close a run on @p ch at tick @p end: finalize its stats, add its
 * energy under @p pm to @p energy and export its counters as
 * "dram.<channel name>".
 */
void closeChannel(DramChannel &ch, const PowerModel &pm, Tick end,
                  EnergyBreakdown &energy, util::MetricsRegistry &m);

} // namespace secdimm::dram

#endif // SECUREDIMM_DRAM_POWER_MODEL_HH

#include "dram/power_model.hh"

namespace secdimm::dram
{

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    actPreNj += o.actPreNj;
    rdWrNj += o.rdWrNj;
    ioNj += o.ioNj;
    backgroundNj += o.backgroundNj;
    refreshNj += o.refreshNj;
    return *this;
}

PowerModel::PowerModel(const TimingParams &timing, const Geometry &geom,
                       bool on_dimm_io, const DramCurrents &currents,
                       const IoEnergyParams &io)
    : timing_(timing),
      geom_(geom),
      onDimmIo_(on_dimm_io),
      cur_(currents),
      io_(io)
{
}

double
PowerModel::ioEnergyPerBurstNj() const
{
    const double bits = blockBytes * 8.0;
    const double pj_per_bit =
        onDimmIo_ ? io_.onDimmPjPerBit : io_.offDimmPjPerBit;
    return bits * pj_per_bit * 1e-3;
}

EnergyBreakdown
PowerModel::compute(const ChannelStats &stats,
                    const std::vector<RankState> &ranks) const
{
    EnergyBreakdown e;
    const double devices = geom_.devicesPerRank;
    const double ns = 1e-9;
    const double ma = 1e-3;
    const double to_nj = 1e9;

    // Activate/precharge pair: incremental current above active
    // standby for one tRC window, per device (Micron TN-41-01).
    const double act_nj = (cur_.idd0 - cur_.idd3n) * ma * cur_.vdd *
                          timing_.ns(timing_.tRC) * ns * devices * to_nj;
    e.actPreNj = act_nj * static_cast<double>(stats.activates);

    // Read/write core energy per burst.
    const double burst_ns = timing_.ns(timing_.tBURST);
    const double rd_nj = (cur_.idd4r - cur_.idd3n) * ma * cur_.vdd *
                         burst_ns * ns * devices * to_nj;
    const double wr_nj = (cur_.idd4w - cur_.idd3n) * ma * cur_.vdd *
                         burst_ns * ns * devices * to_nj;
    e.rdWrNj = rd_nj * static_cast<double>(stats.reads) +
               wr_nj * static_cast<double>(stats.writes);

    // I/O and termination per burst.
    e.ioNj = ioEnergyPerBurstNj() *
             static_cast<double>(stats.reads + stats.writes);

    // Background: integrate rank power-state residencies.
    const double p_act = cur_.idd3n * ma * cur_.vdd * devices;   // W
    const double p_pre = cur_.idd2n * ma * cur_.vdd * devices;
    const double p_pd = cur_.idd2p * ma * cur_.vdd * devices;
    for (const auto &r : ranks) {
        const double t_act =
            timing_.ns(r.cyclesActiveStandby) * ns;
        const double t_pre =
            timing_.ns(r.cyclesPrechargeStandby) * ns;
        const double t_pd = timing_.ns(r.cyclesPowerDown) * ns;
        e.backgroundNj +=
            (p_act * t_act + p_pre * t_pre + p_pd * t_pd) * to_nj;
    }

    // Refresh: incremental current above precharge standby for tRFC.
    const double ref_nj = (cur_.idd5 - cur_.idd2n) * ma * cur_.vdd *
                          timing_.ns(timing_.tRFC) * ns * devices *
                          to_nj;
    e.refreshNj = ref_nj * static_cast<double>(stats.refreshes);

    return e;
}

void
closeChannel(DramChannel &ch, const PowerModel &pm, Tick end,
             EnergyBreakdown &energy, util::MetricsRegistry &m)
{
    ch.finalizeStats(end);
    energy += pm.compute(ch.stats(), ch.rankStates());
    ch.exportMetrics(m, "dram." + ch.name());
}

} // namespace secdimm::dram

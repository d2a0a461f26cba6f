#include "sdimm/split_backend.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secdimm::sdimm
{

SplitBackend::SplitBackend(const SdimmTimingConfig &config,
                           unsigned groups, std::uint64_t seed)
    : SdimmBackend(config, seed, "sdimm.g"),
      slicesPerGroup_(config.numSdimms / groups)
{
    SD_ASSERT(groups >= 1);
    SD_ASSERT(config_.numSdimms % groups == 0);
    SD_ASSERT(slicesPerGroup_ >= 1);

    for (unsigned g = 0; g < groups; ++g) {
        std::vector<LinkBus *> group_buses;
        for (unsigned j = 0; j < slicesPerGroup_; ++j)
            group_buses.push_back(&busOf(g * slicesPerGroup_ + j));
        groups_.push_back(std::make_unique<SplitGroupEngine>(
            "group" + std::to_string(g), config_.perSdimm,
            slicesPerGroup_, group_buses, config_.timing,
            config_.sdimmGeom, config_.lowPower, seed * 6151 + g));
        addUnit(*groups_.back());
    }
}

void
SplitBackend::startOp(std::uint64_t job_id, Tick ready_at)
{
    // Random leaf -> uniformly random group (Independent dimension).
    const unsigned group =
        static_cast<unsigned>(rng_.nextBelow(groups_.size()));
    submitOp(OpRef{job_id, group, ready_at, /*drain=*/false}, ready_at);
}

Tick
SplitBackend::finishOp(const OpRef & /*ref*/, Tick result)
{
    if (groups_.size() > 1) {
        // Independent dimension: obfuscating APPEND (one block burst)
        // to every group, and the occasional extra drain op.
        Tick appends_done = result;
        for (unsigned g = 0; g < groups_.size(); ++g) {
            appends_done = std::max(
                appends_done,
                busOf(g * slicesPerGroup_).transferLines(result, 1));
        }
        if (rng_.nextBool(config_.drainProb)) {
            const auto dst =
                static_cast<unsigned>(rng_.nextBelow(groups_.size()));
            submitOp(OpRef{0, dst, appends_done, /*drain=*/true},
                     appends_done);
        }
    }
    return result + config_.perSdimm.encLatency;
}

} // namespace secdimm::sdimm

/**
 * @file
 * Timing model of the Split protocol (Section III-D) and of the
 * combined INDEP-SPLIT organization (Figure 7e): `groups` Independent
 * partitions, each of which is a Split group over
 * numSdimms/groups slices.  groups == 1 is pure Split; groups ==
 * numSdimms would degenerate to Independent (use IndependentBackend
 * for that).  The CPU side is SdimmBackend's; this backend adds the
 * group draw and, across groups, one APPEND line per group and its
 * drain op.
 */

#ifndef SECUREDIMM_SDIMM_SPLIT_BACKEND_HH
#define SECUREDIMM_SDIMM_SPLIT_BACKEND_HH

#include <memory>
#include <vector>

#include "sdimm/sdimm_backend.hh"
#include "sdimm/split_engine.hh"

namespace secdimm::sdimm
{

/** Split / Indep-Split MemoryBackend. */
class SplitBackend final : public SdimmBackend
{
  public:
    /**
     * @param config  perSdimm = the PER-GROUP tree (for pure Split
     *                this is the full ORAM tree); numSdimms = total
     *                slice count across all groups.
     * @param groups  Independent partitions (1 = pure Split).
     */
    SplitBackend(const SdimmTimingConfig &config, unsigned groups,
                 std::uint64_t seed = 1);

    SplitGroupEngine &group(unsigned g) { return *groups_[g]; }

  private:
    void startOp(std::uint64_t job_id, Tick ready_at) override;
    Tick finishOp(const OpRef &ref, Tick result) override;

    unsigned slicesPerGroup_;
    std::vector<std::unique_ptr<SplitGroupEngine>> groups_;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_SPLIT_BACKEND_HH

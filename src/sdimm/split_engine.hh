/**
 * @file
 * Timing engine of one Split-ORAM group (Section III-D): the S slices
 * of one tree, each on its own internal channel, executing one
 * accessORAM at a time.  Data pieces move buffer-locally
 * (FETCH_DATA); metadata slices stream to the CPU over the channel;
 * the CPU reassembles, picks the block (FETCH_STASH) and ships the
 * eviction schedule (RECEIVE_LIST); write-backs drain locally while
 * the next operation starts.
 */

#ifndef SECUREDIMM_SDIMM_SPLIT_ENGINE_HH
#define SECUREDIMM_SDIMM_SPLIT_ENGINE_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dram/channel.hh"
#include "oram/oram_params.hh"
#include "oram/path_stream.hh"
#include "oram/tree_layout.hh"
#include "sdimm/link_bus.hh"
#include "sdimm/low_power.hh"
#include "sdimm/sdimm_backend.hh"
#include "util/bit_utils.hh"
#include "util/rng.hh"

namespace secdimm::sdimm
{

/** One Split group (all S slices of one tree). */
class SplitGroupEngine final : public SdimmUnit
{
  public:
    /**
     * @param tree   the group's (full) tree parameters
     * @param buses  one LinkBus per slice (slices may share buses)
     */
    SplitGroupEngine(const std::string &name,
                     const oram::OramParams &tree, unsigned slices,
                     std::vector<LinkBus *> buses,
                     const dram::TimingParams &timing,
                     const dram::Geometry &geom, bool low_power,
                     std::uint64_t seed);

    /** The op-done tick is when the requested block reaches the CPU. */
    void submitOp(std::uint64_t tag, Tick ready_at) override;

    Tick nextEventAt() const override;
    void advanceTo(Tick now) override;
    bool idle() const override;
    void closeChannels(Tick end, const dram::PowerModel &pm,
                       BackendReport &report) override;

    unsigned sliceCount() const
    {
        return static_cast<unsigned>(slices_.size());
    }
    dram::DramChannel &sliceChannel(unsigned i)
    {
        return *slices_[i].channel;
    }
    const dram::DramChannel &sliceChannel(unsigned i) const
    {
        return *slices_[i].channel;
    }
    /** 64-byte lines each slice's bucket share occupies. */
    unsigned dataLinesPerBucket() const { return dataLines_; }
    unsigned linesPerBucketSlice() const { return dataLines_ + 1; }

    /** RECEIVE_LIST size per slice, in bytes. */
    std::uint64_t listBytesPerSlice() const;

  private:
    struct Slice
    {
        std::unique_ptr<dram::DramChannel> channel;
        oram::PathStream stream;
        LinkBus *bus = nullptr;
        Tick metaAtCpu = 0;
    };

    struct PendingOp
    {
        std::uint64_t tag;
        Tick readyAt;
    };

    void onDramDone(unsigned slice, const dram::DramCompletion &c);
    void tryStart();
    void maybeRespond();
    void maybeFinishReads();

    oram::OramParams tree_;
    unsigned dataLines_;
    std::optional<oram::TreeLayout> layout_;
    std::optional<LowPowerLayout> lowPowerLayout_;
    Rng rng_;

    std::vector<Slice> slices_;
    std::deque<PendingOp> ops_;
    bool opInFlight_ = false;
    bool responseSent_ = false;
    Tick groupFreeAt_ = 0;
    Tick listDoneAt_ = 0;
    Cycles blockFetchCycles_;
    /** The in-flight op's slice path lines (the same on every
     *  slice), read and then written back. */
    std::vector<Addr> pathMeta_;
    std::vector<Addr> pathData_;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_SPLIT_ENGINE_HH

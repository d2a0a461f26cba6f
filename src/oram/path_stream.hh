/**
 * @file
 * One DRAM channel's share of the accessORAM path operations in
 * flight: the staged two-pass read (metadata lines, then data lines)
 * and the write-back (data lines, then metadata lines) that every
 * timing engine issues -- the Freecursive CPU controller, an
 * Independent SDIMM's secure buffer and each slice of a Split group.
 *
 * Staged lines move into the channel's queues as room allows; each
 * queue blocks only at its own head, so a full write queue never
 * stalls the next operation's reads.
 */

#ifndef SECUREDIMM_ORAM_PATH_STREAM_HH
#define SECUREDIMM_ORAM_PATH_STREAM_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "dram/channel.hh"
#include "util/logging.hh"

namespace secdimm::oram
{

/** Staged path reads and write-backs over one DRAM channel. */
class PathStream
{
  public:
    /** What a completed DRAM request was. */
    enum class Line : std::uint64_t { Meta, Data, Write };

    /**
     * @param channel         the channel this stream feeds (not owned)
     * @param id_base         OR-ed into every request id, so the
     *                        channel's other traffic stays apart
     * @param hold_data_pass  issue no data read while a metadata read
     *                        of this stream is outstanding
     */
    PathStream(dram::DramChannel &channel, std::uint64_t id_base,
               bool hold_data_pass)
        : channel_(channel),
          blockCount_(channel.addressMap().blockCount()),
          idBase_(id_base),
          holdDataPass_(hold_data_pass)
    {
    }

    /**
     * Stage one op's path reads at @p at: the metadata lines, then
     * the data lines.  Lines wrap into the channel (timing-only
     * aliasing, see DESIGN.md).  Restarts lastReadDone() at @p at.
     */
    void
    stageReads(const std::vector<Addr> &meta,
               const std::vector<Addr> &data, Tick at)
    {
        lastReadDone_ = at;
        for (Addr line : meta)
            reads_.push_back(Staged{line % blockCount_, at, Line::Meta});
        for (Addr line : data)
            reads_.push_back(Staged{line % blockCount_, at, Line::Data});
        stagedMeta_ += meta.size();
    }

    /** Stage an op's write-back at @p at: data lines, then metadata. */
    void
    stageWriteBack(const std::vector<Addr> &meta,
                   const std::vector<Addr> &data, Tick at)
    {
        for (Addr line : data)
            writes_.push_back(Staged{line % blockCount_, at, Line::Write});
        for (Addr line : meta)
            writes_.push_back(Staged{line % blockCount_, at, Line::Write});
    }

    /** Move staged lines into the channel while its queues have room. */
    void
    pump()
    {
        while (!reads_.empty() && channel_.canEnqueue(false)) {
            const Staged s = reads_.front();
            if (s.kind == Line::Data && holdDataPass_ && outstandingMeta_)
                break;
            reads_.pop_front();
            channel_.enqueue(idBase_ | static_cast<std::uint64_t>(s.kind),
                             s.line, false, s.at);
            if (s.kind == Line::Meta) {
                --stagedMeta_;
                ++outstandingMeta_;
            } else {
                ++outstandingData_;
            }
        }
        while (!writes_.empty() && channel_.canEnqueue(true)) {
            const Staged s = writes_.front();
            writes_.pop_front();
            channel_.enqueue(idBase_ | static_cast<std::uint64_t>(s.kind),
                             s.line, true, s.at);
            ++outstandingWrites_;
        }
    }

    /** Account one completion of this stream's request @p c. */
    Line
    complete(const dram::DramCompletion &c)
    {
        const auto kind = static_cast<Line>(c.id & ~idBase_);
        switch (kind) {
          case Line::Meta:
            SD_ASSERT(outstandingMeta_ > 0);
            --outstandingMeta_;
            break;
          case Line::Data:
            SD_ASSERT(outstandingData_ > 0);
            --outstandingData_;
            break;
          case Line::Write:
            SD_ASSERT(outstandingWrites_ > 0);
            --outstandingWrites_;
            return kind;
        }
        lastReadDone_ = std::max(lastReadDone_, c.doneAt);
        return kind;
    }

    /** Every staged read has been issued and has completed. */
    bool
    readsDone() const
    {
        return reads_.empty() && outstandingMeta_ == 0 &&
               outstandingData_ == 0;
    }

    /** Every staged metadata read has been issued and has completed. */
    bool
    metaDone() const
    {
        return stagedMeta_ == 0 && outstandingMeta_ == 0;
    }

    /** Nothing staged and nothing outstanding (the channel may still
     *  be finishing requests of other traffic). */
    bool
    idle() const
    {
        return readsDone() && writes_.empty() && outstandingWrites_ == 0;
    }

    /** Latest read completion since the last stageReads(), or its
     *  start tick if no read has completed since. */
    Tick lastReadDone() const { return lastReadDone_; }

  private:
    struct Staged
    {
        Addr line;
        Tick at;
        Line kind;
    };

    dram::DramChannel &channel_;
    Addr blockCount_;
    std::uint64_t idBase_;
    bool holdDataPass_;
    /** Queued lines, one deque per channel queue; each blocks only
     *  at its own head. */
    std::deque<Staged> reads_;
    std::deque<Staged> writes_;
    std::size_t stagedMeta_ = 0;
    std::uint64_t outstandingMeta_ = 0;
    std::uint64_t outstandingData_ = 0;
    std::uint64_t outstandingWrites_ = 0;
    Tick lastReadDone_ = 0;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_PATH_STREAM_HH

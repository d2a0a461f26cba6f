/**
 * @file
 * The non-secure baseline: LLC misses go straight to DRAM, one
 * 64-byte burst each.  This is the denominator of the paper's
 * Figure 6 slowdown and Figure 10 energy-overhead results.
 */

#ifndef SECUREDIMM_ORAM_NONSECURE_BACKEND_HH
#define SECUREDIMM_ORAM_NONSECURE_BACKEND_HH

#include <memory>

#include "dram/dram_system.hh"
#include "trace/memory_backend.hh"

namespace secdimm::oram
{

/** Plain DRAM memory backend. */
class NonSecureBackend : public MemoryBackend
{
  public:
    NonSecureBackend(const dram::TimingParams &timing,
                     const dram::Geometry &geom,
                     dram::MapPolicy map_policy =
                         dram::MapPolicy::RowRankBankCol);

    void setCompletionCallback(CompletionFn fn) override;
    bool canAccept() const override;
    void access(std::uint64_t id, Addr byte_addr, bool write,
                Tick now) override;
    Tick nextEventAt() const override;
    void advanceTo(Tick now) override;
    bool idle() const override;
    unsigned attachObserver(const TimedTraceEventFn &fn) override;
    void closeRun(Tick end, BackendReport &report) override;

    dram::DramSystem &dramSystem() { return sys_; }
    const dram::DramSystem &dramSystem() const { return sys_; }

  private:
    dram::DramSystem sys_;
    CompletionFn onComplete_;
};

} // namespace secdimm::oram

#endif // SECUREDIMM_ORAM_NONSECURE_BACKEND_HH

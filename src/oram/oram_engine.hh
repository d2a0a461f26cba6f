/**
 * @file
 * The one interface every functional protocol implements (Path ORAM,
 * Freecursive, SDIMM Independent, Split and INDEP-SPLIT), so
 * core::SecureMemorySystem drives whichever it built without knowing
 * which.  Engines and bucket stores report what an adversary on the
 * channel sees through a TraceEventFn (util/types.hh), and
 * verify::ChannelObserver records it.
 */

#ifndef SECUREDIMM_ORAM_ORAM_ENGINE_HH
#define SECUREDIMM_ORAM_ORAM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault_types.hh"
#include "oram/oram_params.hh"
#include "util/types.hh"

namespace secdimm
{

namespace crypto
{
struct CryptoTotals;
}
namespace fault
{
class FaultInjector;
}
namespace util
{
class MetricsRegistry;
}

namespace oram
{

/** A functional oblivious memory protocol. */
class OramEngine
{
  public:
    virtual ~OramEngine() = default;

    /**
     * The accessORAM(a, op, d') interface of Section II-C.
     * @return the block's pre-write content
     */
    virtual BlockData access(Addr addr, OramOp op,
                             const BlockData *new_data = nullptr) = 0;

    /** accessORAM operations performed so far, dummies included. */
    virtual std::uint64_t accessCount() const = 0;

    /** Every integrity check (MACs, counters, link auth) passed. */
    virtual bool integrityOk() const = 0;

    /** Export counters under @p prefix (docs/METRICS.md). */
    virtual void exportMetrics(util::MetricsRegistry &m,
                               const std::string &prefix) const = 0;

    /** Fold this engine's crypto work into @p t (crypto.* metrics). */
    virtual void collectCrypto(crypto::CryptoTotals &t) const = 0;

    /**
     * Arm fault injection and bounded detect-and-retry (nullptr
     * disarms; not owned).  @p policy decides what an exhausted retry
     * budget does in the designs that can quarantine a unit; the
     * others fail-stop and ignore it.
     */
    virtual void setFaultInjector(
        fault::FaultInjector *inj,
        fault::DegradationPolicy policy =
            fault::DegradationPolicy::RetryThenStop) = 0;

    /**
     * Route every externally visible event of this engine to @p fn
     * (an empty fn detaches).  Returns the number of attach points.
     */
    virtual unsigned attachObserver(const TraceEventFn &fn) = 0;
};

} // namespace oram
} // namespace secdimm

#endif // SECUREDIMM_ORAM_ORAM_ENGINE_HH

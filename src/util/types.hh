/**
 * @file
 * Fundamental scalar types, block-sized value types and the vocabulary
 * of externally visible channel events (what an adversary on a channel
 * sees, reported by the functional engines and the timing backends to
 * verify::ChannelObserver) shared by every module in the Secure DIMM
 * reproduction.
 */

#ifndef SECUREDIMM_UTIL_TYPES_HH
#define SECUREDIMM_UTIL_TYPES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace secdimm
{

/** Physical or ORAM-logical byte/block address. */
using Addr = std::uint64_t;

/** Absolute simulation time, measured in memory-controller cycles. */
using Tick = std::uint64_t;

/** A duration in memory-controller cycles. */
using Cycles = std::uint64_t;

/** Leaf identifier in a Path ORAM tree (0 .. 2^L - 1). */
using LeafId = std::uint64_t;

/** Cache-line / ORAM-block size used throughout (bytes). */
inline constexpr std::size_t blockBytes = 64;

/** One 64-byte data block, the unit of all ORAM data movement. */
using BlockData = std::array<std::uint8_t, blockBytes>;

/** A tick value meaning "never" / "not scheduled". */
inline constexpr Tick tickNever = ~Tick{0};

/** Sentinel for an invalid / absent address. */
inline constexpr Addr invalidAddr = ~Addr{0};

/** Sentinel for an invalid leaf. */
inline constexpr LeafId invalidLeaf = ~LeafId{0};

/** Zero-filled block, handy for dummies. */
inline BlockData
zeroBlock()
{
    return BlockData{};
}

/** What an event on an observed channel was. */
enum class TraceEventKind : std::uint8_t
{
    Read,       ///< DRAM read burst (CAS address) or a path's leaf.
    Write,      ///< DRAM write burst.
    ShortCmd,   ///< Link-bus short command; SDIMM protocols put
                ///< (command type << 8) | unit in the address.
    Probe,      ///< Link-bus PROBE poll.
    Transfer,   ///< Link-bus data transfer (payload size visible).
    StoreRead,  ///< BucketStore bucket read (bucket seq visible).
    StoreWrite, ///< BucketStore bucket write.
};

/**
 * Receives one externally visible event: its kind and the
 * address-like quantity the channel exposes.  An empty function
 * means nobody is watching, and the component records nothing.
 */
using TraceEventFn = std::function<void(TraceEventKind, std::uint64_t)>;

/** A TraceEventFn of the timing layer: also the event's completion
 *  tick on the channel. */
using TimedTraceEventFn =
    std::function<void(TraceEventKind, std::uint64_t, Tick)>;

} // namespace secdimm

#endif // SECUREDIMM_UTIL_TYPES_HH

/**
 * @file
 * Functional model of the SDIMM secure buffer chip (Section III-A):
 * an on-DIMM ORAM controller (local Path ORAM over this SDIMM's
 * subtree), a transfer queue for blocks arriving from other SDIMMs,
 * and the encrypted-link endpoint the CPU talks to.
 *
 * Message payloads have fixed, operation-independent sizes -- the
 * property the privacy argument of Section III-G rests on.
 */

#ifndef SECUREDIMM_SDIMM_SECURE_BUFFER_HH
#define SECUREDIMM_SDIMM_SECURE_BUFFER_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "oram/path_oram.hh"
#include "sdimm/link_session.hh"
#include "sdimm/transfer_queue.hh"

namespace secdimm::sdimm
{

/** Fixed wire sizes of the Independent-protocol messages. */
inline constexpr std::size_t accessBodyBytes = 8 + 8 + 8 + 1 + blockBytes;
inline constexpr std::size_t responseBodyBytes = blockBytes;
inline constexpr std::size_t appendBodyBytes = 1 + 8 + 8 + blockBytes;

/** Plaintext content of an ACCESS message. */
struct AccessRequest
{
    Addr addr = 0;
    LeafId localLeaf = 0;
    /** New leaf within this SDIMM, or invalidLeaf if moving away. */
    LeafId newLocalLeaf = invalidLeaf;
    bool write = false;
    BlockData data{};
};

/** Plaintext content of the buffer's response: the block's pre-write
 *  content. */
struct AccessResponse
{
    BlockData data{};
};

/** Plaintext content of an APPEND message. */
struct AppendRequest
{
    bool real = false;
    Addr addr = 0;
    LeafId localLeaf = 0;
    BlockData data{};
};

/**
 * Serialize/parse the fixed-size message bodies.  The unpack side
 * treats the body as untrusted wire input: a body of the wrong size
 * (truncated or padded) yields nullopt instead of misparsing -- the
 * secure buffer decides how to fail (fuzz-derived hardening; a
 * malformed-but-authenticated frame must never crash the chip model).
 */
std::vector<std::uint8_t> packAccess(const AccessRequest &r);
std::optional<AccessRequest>
unpackAccess(const std::vector<std::uint8_t> &b);
std::vector<std::uint8_t> packResponse(const AccessResponse &r);
std::optional<AccessResponse>
unpackResponse(const std::vector<std::uint8_t> &b);
std::vector<std::uint8_t> packAppend(const AppendRequest &r);
std::optional<AppendRequest>
unpackAppend(const std::vector<std::uint8_t> &b);

/** Per-buffer counters. */
struct SecureBufferStats
{
    std::uint64_t accessOps = 0;   ///< accessORAMs run (incl. drains).
    std::uint64_t drainOps = 0;    ///< Extra drain accessORAMs.
    std::uint64_t appendsReal = 0;
    std::uint64_t appendsDummy = 0;
};

/** One SDIMM's trusted buffer chip. */
class SecureBuffer
{
  public:
    /**
     * @param params local tree shape (levels = global L - log2 #SDIMMs)
     * @param index  SDIMM index (key/nonce separation)
     * @param transfer_capacity / drain_prob  Section IV-C parameters
     */
    SecureBuffer(const oram::OramParams &params, unsigned index,
                 std::uint64_t seed, std::size_t transfer_capacity,
                 double drain_prob, Rng &boot_rng);

    /** CPU-side endpoint of this SDIMM's link (frontend seals with it). */
    LinkEndpoint &cpuLink() { return cpuEnd_; }

    /**
     * Handle a sealed ACCESS; returns the sealed response, or nullopt
     * when the message fails authentication / decode.  Without a
     * fault injector a failure panics (pre-recovery fail-stop); with
     * one it is reported to the CPU as "no response" so the frontend
     * can re-send the (re-sealed) request.
     */
    std::optional<SealedMessage> handleAccess(const SealedMessage &msg);

    /**
     * Handle a sealed APPEND; false when the message fails
     * authentication / decode (same recovery contract as
     * handleAccess).  A full transfer queue is resolved with a forced
     * extra-accessORAM drain, never a drop.
     */
    bool handleAppend(const SealedMessage &msg);

    /**
     * Re-seal the response of the most recent successful ACCESS under
     * a fresh sequence number (re-FETCH after the CPU saw a corrupt or
     * missing FETCH_RESULT).  nullopt if no response is cached.
     */
    std::optional<SealedMessage> refetchResult();

    /**
     * Arm fault injection + recovery accounting (nullptr disarms);
     * forwarded to the local ORAM (and its store) and the transfer
     * queue.  Not owned.
     */
    void setFaultInjector(fault::FaultInjector *inj);

    /**
     * Count one CPU-side unseal failure caused by an injected
     * downlink fault, so integrityOk() can tell recovered injections
     * apart from genuine tampering.
     */
    void noteAbsorbedCpuAuthFailure() { ++absorbedCpuAuthFailures_; }

    oram::PathOram &oram() { return *oram_; }
    const oram::PathOram &oram() const { return *oram_; }
    const TransferQueue &transferQueue() const { return xfer_; }
    const SecureBufferStats &stats() const { return stats_; }
    unsigned index() const { return index_; }

    /** All MACs/counters verified so far (tree + link). */
    bool integrityOk() const;

    /**
     * Every live block resident on this SDIMM: the full local tree
     * walk plus the stash and the transfer queue.  This is the
     * maintenance-path read used by oblivious subtree evacuation once
     * the buffer chip's protocol engine is quarantined (docs/FAULTS.md
     * states the raw-DRAM-readable assumption); bucket reads that fail
     * their MAC are retried under the shared injector budget.
     */
    std::vector<oram::StashEntry> residentBlocks() const;

    /**
     * Plaintext of the most recent successful ACCESS response, read
     * over the maintenance path (same raw-DRAM-readable trust
     * assumption as residentBlocks()).  A byzantine unit garbles the
     * sealed frame on the wire, not this latch, so a conviction fired
     * by budget exhaustion can still recover the in-flight block
     * loss-free.  nullopt if no response is cached.
     */
    std::optional<std::vector<std::uint8_t>> maintenanceResult() const
    {
        if (!haveLastResponse_)
            return std::nullopt;
        return lastResponsePlain_;
    }

    /**
     * Export this buffer's counters (ops, appends, local ORAM, the
     * transfer queue, and both link endpoints) under @p prefix.
     */
    void
    exportMetrics(util::MetricsRegistry &m,
                  const std::string &prefix) const
    {
        m.setCounter(prefix + ".access_ops", stats_.accessOps);
        m.setCounter(prefix + ".drain_ops", stats_.drainOps);
        m.setCounter(prefix + ".appends_real", stats_.appendsReal);
        m.setCounter(prefix + ".appends_dummy", stats_.appendsDummy);
        oram_->exportMetrics(m, prefix + ".oram");
        xfer_.exportMetrics(m, prefix + ".xfer");
        dimmEnd_.exportMetrics(m, prefix + ".link");
    }

    /** Fold link + local ORAM crypto work into @p t (crypto.*). */
    void
    collectCrypto(crypto::CryptoTotals &t) const
    {
        cpuEnd_.collectCrypto(t);
        dimmEnd_.collectCrypto(t);
        oram_->collectCrypto(t);
    }

  private:
    SecureBuffer(const oram::OramParams &params, unsigned index,
                 std::uint64_t seed, std::size_t transfer_capacity,
                 double drain_prob,
                 std::pair<LinkEndpoint, LinkEndpoint> link);

    /** Pull one transfer-queue entry into the normal stash. */
    void serviceTransferQueue();

    unsigned index_;
    LinkEndpoint cpuEnd_;
    LinkEndpoint dimmEnd_;
    std::unique_ptr<oram::PathOram> oram_;
    TransferQueue xfer_;
    SecureBufferStats stats_;
    fault::FaultInjector *injector_ = nullptr;
    /** Plaintext of the last ACCESS response (re-FETCH support). */
    std::vector<std::uint8_t> lastResponsePlain_;
    bool haveLastResponse_ = false;
    /** Unseal failures known to stem from injected (recovered) faults. */
    std::uint64_t absorbedDimmAuthFailures_ = 0;
    std::uint64_t absorbedCpuAuthFailures_ = 0;
};

} // namespace secdimm::sdimm

#endif // SECUREDIMM_SDIMM_SECURE_BUFFER_HH

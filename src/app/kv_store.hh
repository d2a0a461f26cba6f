/**
 * @file
 * Oblivious key-value store over the sharded oblivious memory
 * service: variable-length keys map to fixed-geometry slots (a run of
 * blocksPerSlot() blocks) through a trusted-side client index, the
 * app-over-ORAM layering of The Pyramid Scheme.  A key keeps its slot
 * for its whole lifetime: hiding which block is touched is the job of
 * the ORAM leaf remap inside every shard (Path ORAM, Stefanov et al.).
 *
 * Obliviousness invariant (docs/KVSTORE.md has the full argument):
 * every operation -- get or put, hit or miss, insert or update or
 * erase, even a capacity-exhausted insert -- performs EXACTLY
 * blocksPerSlot() block reads of one slot followed by blocksPerSlot()
 * block writes of the same slot, where
 *
 *  - the slot is the key's own slot on a hit or an insert, or a
 *    uniform draw over ALL slots on a miss or a full insert;
 *  - a put writes its record, an erase hit writes an empty record,
 *    and every other op issues payload-less cover writes, which the
 *    shard rewrites in place (a cover op never writes back blocks of
 *    a slot it does not own).
 *
 * Slots are laid out with a stride of roundUp(B, N) blocks for N
 * shards, so block b of EVERY slot lands on shard b mod N: the
 * visible (shard, kind) sequence of an op is the same fixed sequence
 * for every key, value, and hit/miss outcome, and each shard is a
 * complete ORAM that hides the local address and the access kind.
 * The deliberately leaky baseline (KvIndexMode::LeakyBaseline) pins
 * keys to static slots and skips dummy work; it exists as the
 * positive control that fails the calibrated gate
 * (verify::compareCalibrated, tests/app) and measures a hit/miss
 * leak (tools/sdimm_leakmeter --kv).
 */

#ifndef SECUREDIMM_APP_KV_STORE_HH
#define SECUREDIMM_APP_KV_STORE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "serve/sharded_memory.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace secdimm::app
{

/** Base class of every typed KV-store error. */
class KvError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Insert rejected because capacityKeys live keys already exist.  The
 * store NEVER silently evicts; the failing insert still performs the
 * full dummy access sequence before throwing, so capacity exhaustion
 * is invisible on the channel.
 */
class KvStoreFullError : public KvError
{
  public:
    explicit KvStoreFullError(const std::string &key)
        : KvError("kv store full: insert of key \"" + key +
                  "\" rejected (no silent eviction)")
    {
    }
};

/** Key empty or longer than Options::maxKeyBytes. */
class KeyTooLargeError : public KvError
{
  public:
    explicit KeyTooLargeError(std::size_t len, std::size_t max)
        : KvError("kv key of " + std::to_string(len) +
                  " bytes outside [1, " + std::to_string(max) + "]")
    {
    }
};

/** Value longer than Options::maxValueBytes. */
class ValueTooLargeError : public KvError
{
  public:
    explicit ValueTooLargeError(std::size_t len, std::size_t max)
        : KvError("kv value of " + std::to_string(len) +
                  " bytes exceeds max " + std::to_string(max))
    {
    }
};

/** Which client index implementation the store runs. */
enum class KvIndexMode
{
    /** Fixed slots with cover traffic; the invariant above holds. */
    Oblivious,
    /**
     * Positive control: static key->slot assignment, hit-length
     * reads, no dummy work on misses.  Deliberately leaky.
     */
    LeakyBaseline,
};

const char *kvIndexModeName(KvIndexMode mode);

/**
 * Oblivious KV store over serve::ShardedSecureMemory.  Thread-safe:
 * concurrent clients may issue single and batched operations; ops on
 * the same key serialize, ops on distinct keys overlap through the
 * service's per-shard queues.
 */
class ObliviousKVStore
{
  public:
    struct Options
    {
        /** Service under the store (capacity, shards, protocol...). */
        serve::ShardedSecureMemory::Options serve;

        /** Live-key capacity; inserts beyond it throw KvStoreFullError.
         *  The service capacity must provide at least capacityKeys
         *  slots of roundUp(B, N) blocks (constructor throws
         *  std::invalid_argument if not); slots beyond capacityKeys
         *  are only ever read and rewritten in place by cover ops. */
        std::uint64_t capacityKeys = 256;

        /** Geometry bounds; together they fix blocksPerSlot(). */
        std::size_t maxKeyBytes = 48;
        std::size_t maxValueBytes = 192;

        KvIndexMode index = KvIndexMode::Oblivious;

        /** Seed of the slot draws (decorrelated from the service seed
         *  by the usual per-component derivation). */
        std::uint64_t seed = 1;

        /** Per-block-request wait bound; 0 = unbounded.  Each phase
         *  waits on its requests as one group, and times out once the
         *  bound passes with none of them completing; the op then
         *  throws serve::RequestTimeoutError naming the shard of the
         *  first request still incomplete.  Expiry in the read phase
         *  leaves the op without effect (nothing written, nothing
         *  committed); expiry in the write phase comes after every
         *  write was submitted, so the op commits first and the
         *  queued writes still land before any later op on the slot. */
        std::chrono::milliseconds opDeadline{0};
    };

    explicit ObliviousKVStore(const Options &options);
    ~ObliviousKVStore();

    ObliviousKVStore(const ObliviousKVStore &) = delete;
    ObliviousKVStore &operator=(const ObliviousKVStore &) = delete;

    /* ---- single-key operations ----------------------------------- */
    /** Insert or update.  Throws KvStoreFullError on a full insert. */
    void put(const std::string &key, const std::string &value);

    /** Lookup; nullopt on miss (after the full dummy sequence). */
    std::optional<std::string> get(const std::string &key);

    /** Remove; returns whether the key existed. */
    bool erase(const std::string &key);

    /* ---- batched operations -------------------------------------- */
    /**
     * Batched lookup: plans every op in one pass and fans the block
     * reads out across the shard queues before any wait, amortizing
     * per-shard worker wakeups.  Reads observe pre-batch state except
     * that duplicate keys inside one batch apply in order.
     */
    std::vector<std::optional<std::string>>
    multiGet(const std::vector<std::string> &keys);

    /** Batched insert/update (see multiGet).  If an insert hits
     *  capacity, ops planned before it still commit, the failing op
     *  performs its dummy sequence, then KvStoreFullError is thrown. */
    void multiPut(
        const std::vector<std::pair<std::string, std::string>> &items);

    /* ---- introspection ------------------------------------------- */
    std::uint64_t liveKeys() const;
    std::uint64_t capacityKeys() const { return capacityKeys_; }
    std::uint64_t slotCount() const { return slotCount_; }
    unsigned blocksPerSlot() const { return blocksPerSlot_; }
    KvIndexMode indexMode() const { return mode_; }

    /** The service underneath (observer/recorder hooks, health). */
    serve::ShardedSecureMemory &service() { return *mem_; }

    /** Wait until every accepted block request has completed. */
    void drain() { mem_->drain(); }

    /** kv.* counters merged with the full service snapshot (drains
     *  first, so it must not race with active clients). */
    util::MetricsRegistry metrics();

    /** All shards' integrity checks pass (drains first). */
    bool integrityOk() { return mem_->integrityOk(); }

    /** Slots a service of @p serve_opts would provide for this
     *  geometry -- sizing helper for callers picking capacities. */
    static std::uint64_t
    slotsFor(const serve::ShardedSecureMemory::Options &serve_opts,
             std::size_t max_key_bytes, std::size_t max_value_bytes);

  private:
    enum class OpKind
    {
        Get,
        Put,
        Erase,
    };

    /** One planned operation of a batch chunk. */
    struct PlannedOp
    {
        OpKind kind = OpKind::Get;
        std::string key;
        std::string value; ///< Put payload.

        bool hit = false;
        bool insert = false; ///< Put creating a new live key.
        bool full = false;   ///< Insert rejected: dummy + throw.
        bool mismatch = false; ///< Hit slot held another key's record.
        std::uint64_t slot = 0; ///< Read, then written, by this op.

        std::optional<std::string> result;
        bool found = false;
    };

    static unsigned slotBlocksFor(std::size_t max_key_bytes,
                                  std::size_t max_value_bytes);

    /** Service block holding block @p b of slot @p slot. */
    Addr blockOf(std::uint64_t slot, unsigned b) const
    {
        return slot * slotStride_ + b;
    }

    /** Run @p ops as ordered rounds of distinct-key chunks. */
    void runOps(std::vector<PlannedOp> &ops);

    /** One chunk: plan under the lock, do I/O outside it, commit. */
    void runChunk(std::vector<PlannedOp *> &chunk);

    /** Plan a chunk; called with mu_ held. */
    void planChunk(std::vector<PlannedOp *> &chunk,
                   std::unique_lock<std::mutex> &lk);
    void commitChunk(std::vector<PlannedOp *> &chunk);
    /** Undo planChunk after a read-phase error (nothing written). */
    void rollbackChunk(std::vector<PlannedOp *> &chunk);

    /** Leaky positive control: no dummies, static slots. */
    void runOpsLeaky(std::vector<PlannedOp> &ops);

    void validateKey(const std::string &key) const;

    /** Encode key+value into blocksPerSlot_ blocks. */
    std::vector<BlockData> encodeRecord(const std::string &key,
                                        const std::string &value) const;
    /** Decode; nullopt for dummy/garbage records. */
    std::optional<std::pair<std::string, std::string>>
    decodeRecord(const std::vector<BlockData> &blocks) const;

    /** Leaky control I/O: read (@p payload null) or write the first
     *  @p blocks blocks of @p slot as one group, bounded by
     *  opDeadline_. */
    std::vector<BlockData> runSlot(std::uint64_t slot, unsigned blocks,
                                   const std::vector<BlockData> *payload);

    /** Bytes of record header: u16 key length + u32 value length. */
    static constexpr std::size_t headerBytes = 6;

    std::unique_ptr<serve::ShardedSecureMemory> mem_;
    KvIndexMode mode_;
    std::uint64_t capacityKeys_;
    std::size_t maxKeyBytes_;
    std::size_t maxValueBytes_;
    unsigned blocksPerSlot_;
    /** roundUp(blocksPerSlot_, shards): block b of every slot lands
     *  on shard b mod N. */
    std::uint64_t slotStride_;
    std::uint64_t slotCount_;
    std::chrono::milliseconds opDeadline_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<std::string, std::uint64_t> index_;
    /** Slots no key owns; starts as capacityKeys slots, so the store
     *  is full exactly when it is empty. */
    std::vector<std::uint64_t> freeSlots_;
    std::unordered_set<std::string> inflightKeys_;
    Rng rng_;

    /** Leaky-baseline index: static slot + used-block count. */
    struct LeakyEntry
    {
        std::uint64_t slot;
        unsigned blocks;
    };
    std::unordered_map<std::string, LeakyEntry> leakyIndex_;

    util::MetricsRegistry kv_;
};

} // namespace secdimm::app

#endif // SECUREDIMM_APP_KV_STORE_HH

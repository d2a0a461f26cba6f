/**
 * @file
 * Sharded multi-threaded oblivious memory service: the block-address
 * space is interleaved across N independent core::SecureMemorySystem
 * shards (shard = block mod N), each driven by a dedicated worker
 * thread pulling from a bounded MPSC request queue.
 *
 * The partitioning argument mirrors the paper's Independent ORAM,
 * which splits the tree by top leaf bits across SDIMMs: each shard is
 * a complete, independently seeded ORAM, so its externally visible
 * command schedule depends only on the sequence of requests *it*
 * serves -- obliviousness stays shard-local (the per-shard trace is
 * checked by tests/serve), and a fixed seed plus a fixed per-shard
 * request order reproduces a bit-identical per-shard schedule
 * regardless of how the worker threads interleave in wall-clock time.
 *
 * Two frontends:
 *  - synchronous facade: readBlock/writeBlock plus byte-granular
 *    read/write that may span shards (adjacent blocks live on
 *    different shards, so multi-block spans fan out in parallel);
 *  - asynchronous futures: submitRead/submitWrite enqueue and return
 *    immediately (or block briefly on a full queue -- that is the
 *    backpressure).  Both return a future of the block's contents
 *    before the access, resolved once by the shard worker.
 *
 * Batching: each worker drains up to Options::maxBatch requests per
 * wakeup; maxBatch == 1 disables batching.
 *
 * The shards share nothing mutable: the per-shard request queues are
 * the only cross-thread structures, and the serve.* counters live in
 * them, under the lock every request already takes.  See
 * docs/SHARDING.md.
 */

#ifndef SECUREDIMM_SERVE_SHARDED_MEMORY_HH
#define SECUREDIMM_SERVE_SHARDED_MEMORY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/secure_memory_system.hh"
#include "serve/request_queue.hh"
#include "util/metrics.hh"

#include "verify/leak_meter.hh"

namespace secdimm::verify
{
class ChannelObserver;
}

namespace secdimm::serve
{

/**
 * Typed per-request error of a dead shard: a shard whose
 * SecureMemorySystem reached FailStop keeps draining its queue, but
 * every affected future resolves with this exception instead of
 * fabricated zeros -- and instead of taking the process (and the
 * other shards) down.  The sync facade rethrows it from get().
 */
class ShardFailedError : public std::runtime_error
{
  public:
    explicit ShardFailedError(unsigned shard)
        : std::runtime_error("shard " + std::to_string(shard) +
                             " failed (FailStop): request not served"),
          shard_(shard)
    {
    }

    unsigned shard() const { return shard_; }

  private:
    unsigned shard_;
};

/**
 * Typed per-request deadline error: the caller bounded its wait
 * (app::ObliviousKVStore::Options::opDeadline) and the shard worker
 * did not complete the request in time.  Unlike ShardFailedError this
 * says nothing about the shard's health -- the request is still
 * queued and WILL complete (accepted work is never dropped); only the
 * caller's wait was cut short.
 */
class RequestTimeoutError : public std::runtime_error
{
  public:
    RequestTimeoutError(unsigned shard,
                        std::chrono::milliseconds deadline)
        : std::runtime_error("shard " + std::to_string(shard) +
                             ": request not served within " +
                             std::to_string(deadline.count()) + " ms"),
          shard_(shard)
    {
    }

    unsigned shard() const { return shard_; }

  private:
    unsigned shard_;
};

/**
 * Point-in-time health of one shard, exported as the
 * `serve.sN.health` / `serve.shard_health.*` gauges:
 *  - Healthy:  integrity holds, nothing quarantined;
 *  - Degraded: still serving, but units were quarantined or faults
 *              went unrecovered (capacity/latency degraded);
 *  - Failed:   FailStop reached; requests resolve ShardFailedError.
 */
enum class ShardHealth : int
{
    Healthy = 0,
    Degraded = 1,
    Failed = 2,
};

const char *shardHealthName(ShardHealth h);

/** Byte-addressable oblivious memory served by N shard threads. */
class ShardedSecureMemory
{
  public:
    struct Options
    {
        /**
         * Template for every shard: protocol, stash size, fault plan,
         * audits.  `shard.capacityBytes` is the TOTAL requested
         * capacity; each shard gets a 1/numShards slice (rounded up to
         * its tree size).  `shard.seed` is the base seed; shard i runs
         * on `seed * 1000003 + i` (the per-component derivation idiom
         * of util/rng.hh), so shards draw decorrelated streams while
         * one top-level seed still pins the whole service.
         */
        core::SecureMemorySystem::Options shard;
        unsigned numShards = 4;
        /** Per-shard queue bound: producers block when it is full. */
        std::size_t queueCapacity = 64;
        /** Max requests a worker drains per wakeup; 1 = no batching. */
        unsigned maxBatch = 8;
        /**
         * Per-shard fault-plan overrides (chaos campaigns): shard i
         * runs shardFaultPlans[i] instead of shard.faultPlan when the
         * vector has an entry for it.  Shorter-than-numShards vectors
         * leave the remaining shards on the template plan.
         */
        std::vector<fault::FaultPlan> shardFaultPlans;
    };

    explicit ShardedSecureMemory(const Options &options);
    ~ShardedSecureMemory();

    ShardedSecureMemory(const ShardedSecureMemory &) = delete;
    ShardedSecureMemory &operator=(const ShardedSecureMemory &) = delete;

    /* ---- topology ------------------------------------------------ */
    unsigned numShards() const { return numShards_; }
    std::uint64_t capacityBlocks() const { return capacityBlocks_; }
    std::uint64_t capacityBytes() const
    {
        return capacityBlocks_ * blockBytes;
    }
    unsigned shardOf(Addr block) const
    {
        return static_cast<unsigned>(block % numShards_);
    }
    Addr localBlock(Addr block) const { return block / numShards_; }

    /** The exact per-shard Options the constructor builds for shard
     *  @p i -- exposed so tests can replay a single-threaded baseline
     *  with identical seeds and capacities. */
    static core::SecureMemorySystem::Options
    shardOptions(const Options &options, unsigned i);

    /* ---- asynchronous API ---------------------------------------- */
    /** Enqueue a block read; the future resolves on the shard worker
     *  with the block's contents.  Blocks only while the target
     *  shard's queue is full. */
    std::future<BlockData> submitRead(Addr block_index);

    /** Enqueue a block write; the future resolves, with the block's
     *  contents from before the write, once the write is durable in
     *  the shard's ORAM.  Without @p data it is a cover write: one
     *  ORAM access that rewrites the block in place, which the
     *  channel and the schedule cannot tell from a write with data. */
    std::future<BlockData> submitWrite(Addr block_index,
                                       const std::optional<BlockData> &data);

    /* ---- synchronous facade -------------------------------------- */
    BlockData readBlock(Addr block_index);
    void writeBlock(Addr block_index, const BlockData &data);

    /** Byte-granular read; spans blocks (and therefore shards) as
     *  needed, fanning the per-block reads out concurrently. */
    void read(Addr byte_addr, void *out, std::size_t len);

    /** Byte-granular write (read-modify-write at block granularity
     *  for partial blocks). */
    void write(Addr byte_addr, const void *data, std::size_t len);

    /* ---- lifecycle ----------------------------------------------- */
    /**
     * Wait until every accepted request has completed and all workers
     * are idle.  Callers must have stopped submitting; with
     * concurrent producers the wait is satisfied on any transient
     * empty instant.
     */
    void drain();

    /**
     * Stop accepting requests, finish everything already queued, and
     * join the workers.  Idempotent; the destructor calls it.  Every
     * future obtained before shutdown() still completes -- accepted
     * work is never dropped.
     */
    void shutdown();

    /* ---- introspection ------------------------------------------- */
    /**
     * Aggregated snapshot: `serve.*` service counters, read from the
     * shard queues (per-shard access counts, batch-size and
     * queue-depth histograms, queue high-water, producer stalls)
     * plus the merge of every shard's SecureMemorySystem registry
     * (counters add, histograms merge; see docs/METRICS.md).  Drains
     * first, so it must not race with active producers.
     */
    util::MetricsRegistry metrics();

    /** One shard's own registry (drains first). */
    util::MetricsRegistry shardMetrics(unsigned shard);

    /** Sum of all shards' accessORAM counts (drains first). */
    std::uint64_t accessCount();

    /** All shards' integrity checks pass (drains first). */
    bool integrityOk();

    /**
     * Health of one shard, as last published by its worker (no
     * drain; safe from any thread).  A Failed shard stays in the
     * rotation -- its queue keeps draining, its requests resolve
     * ShardFailedError -- so one dead shard never blocks the rest.
     */
    ShardHealth shardHealth(unsigned shard) const
    {
        return static_cast<ShardHealth>(
            health_[shard].load(std::memory_order_acquire));
    }

    /**
     * Attach a passive trace observer to shard @p shard's externally
     * visible channel (see SecureMemorySystem::attachObserver).
     * Attach before submitting traffic; returns attach-point count.
     */
    unsigned attachObserver(unsigned shard,
                            verify::ChannelObserver &observer);

    /**
     * Observer hook for the INTERLEAVED schedule: every request a
     * worker completes is recorded as (shard, is-write) in global
     * completion order, which is exactly what an adversary watching
     * the service frontend sees of the multi-threaded execution.  The
     * concurrency-sound checker (verify::compareSchedules) compares
     * two such recordings.  Install before submitting traffic and
     * keep the recorder alive until shutdown(); nullptr detaches.
     */
    void
    setScheduleRecorder(verify::ScheduleRecorder *recorder)
    {
        scheduleRecorder_.store(recorder, std::memory_order_release);
    }

    /**
     * Test seam: while @p held, every shard worker stops after its
     * next dequeue, so queued requests wait however the OS schedules
     * the threads (deadline tests).  shutdown() releases the workers.
     */
    void holdWorkers(bool held);

  private:
    struct Request
    {
        Addr local = 0;
        bool write = false;
        std::optional<BlockData> data; ///< nullopt: read or cover write.
        std::promise<BlockData> done;  ///< Contents before the access.
    };

    std::future<BlockData> submit(Addr block_index, bool write,
                                  std::optional<BlockData> data);
    void workerLoop(unsigned shard);
    void noteCompleted(std::size_t n);

    /** Re-derive and publish shard @p shard's health gauge. */
    void publishHealth(unsigned shard, bool failed);

    unsigned numShards_;
    unsigned maxBatch_;
    std::uint64_t capacityBlocks_ = 0;
    std::vector<std::unique_ptr<core::SecureMemorySystem>> shards_;
    std::vector<std::unique_ptr<BoundedMpscQueue<Request>>> queues_;
    std::vector<std::thread> workers_;

    /** Worker-published ShardHealth per shard (atomics are not
     *  movable, hence the unique_ptr array). */
    std::unique_ptr<std::atomic<int>[]> health_;

    std::atomic<std::uint64_t> inflight_{0};
    std::mutex idleMu_;
    std::condition_variable idleCv_;

    std::atomic<verify::ScheduleRecorder *> scheduleRecorder_{nullptr};

    /** holdWorkers() state: workers read held_ once per batch. */
    std::atomic<bool> held_{false};
    std::mutex holdMu_;
    std::condition_variable holdCv_;

    std::atomic<bool> shutdown_{false};
    std::mutex shutdownMu_;
};

} // namespace secdimm::serve

#endif // SECUREDIMM_SERVE_SHARDED_MEMORY_HH

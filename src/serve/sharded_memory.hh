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
 *  - groups: submitGroup enqueues a list of block requests and
 *    returns one GroupCompletion for all of them -- results in
 *    submission order, one wakeup for the whole group.  The KV store
 *    submits each phase as a group, and byte-granular read/write
 *    spans (adjacent blocks live on different shards, so multi-block
 *    spans fan out in parallel) are groups too;
 *  - single blocks: submitRead/submitWrite return a future of the
 *    block's contents before the access, and readBlock/writeBlock
 *    wait for it; each is a group of one.
 * Submission blocks only while a target shard's queue is full --
 * that is the backpressure.
 *
 * Batching: each worker drains up to Options::maxBatch requests per
 * pop; maxBatch == 1 disables batching.
 *
 * Waiting: a worker with an empty queue and a client waiting on a
 * group both poll for a bounded time (spinUntil in request_queue.hh)
 * before they park, so a short wait costs no thread wakeup.
 *
 * The shards share no ORAM state.  The cross-thread structures are
 * the per-shard request queues, each group's completion, and one
 * process-wide counter, serve::busyThreads (request_queue.hh), which
 * every worker, spinner and parked waiter updates so that spinning
 * never takes a CPU from the work it waits for.  Being process-wide,
 * it couples separate ShardedSecureMemory instances in one process:
 * one service's load stops another's spinning.  The serve.* counters
 * live in the queues, under the lock every request already takes.
 * See docs/SHARDING.md.
 */

#ifndef SECUREDIMM_SERVE_SHARDED_MEMORY_HH
#define SECUREDIMM_SERVE_SHARDED_MEMORY_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
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
 * (GroupCompletion::wait, app::ObliviousKVStore::Options::opDeadline)
 * and no request of the group completed within the deadline.  It
 * names the shard of the first request still incomplete, in
 * submission order.  Unlike ShardFailedError this says nothing about
 * the shard's health -- the request is still queued and WILL
 * complete (accepted work is never dropped); only the caller's wait
 * was cut short.
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

/** One block request of a group (ShardedSecureMemory::submitGroup). */
struct BlockRequest
{
    Addr block = 0;
    bool write = false;
    /** A write's payload; nullopt on a read or a cover write. */
    std::optional<BlockData> data;
};

/**
 * One completion for a group of block requests, shared by the
 * submitter and the queued requests, so it outlives a waiter that
 * timed out.  A shard worker settles each request it serves and
 * lowers the outstanding count by one; only the decrement that
 * reaches zero wakes the waiter, so the group is released right
 * after its own last request.  (With no spare CPU, every decrement
 * wakes the waiter.)
 */
class GroupCompletion
{
  public:
    explicit GroupCompletion(std::vector<unsigned> shards);

    GroupCompletion(const GroupCompletion &) = delete;
    GroupCompletion &operator=(const GroupCompletion &) = delete;

    /**
     * Wait until every request has completed and return their
     * results in submission order: each block's contents from before
     * its access.  Polls for a bounded time, then parks.  Rethrows
     * the error of the first failed request in submission order
     * (ShardFailedError).  With @p deadline > 0, throws
     * RequestTimeoutError once @p deadline passes with no request of
     * the group completing.  Call once, from the submitting thread.
     */
    std::vector<BlockData>
    wait(std::chrono::milliseconds deadline = std::chrono::milliseconds(0));

  private:
    friend class ShardedSecureMemory;

    /** Worker side: request @p i read @p prior, or failed. */
    void
    settle(std::size_t i, const BlockData &prior)
    {
        results_[i] = prior;
        done_[i].store(true, std::memory_order_release);
    }
    void fail(std::size_t i, const std::exception_ptr &error);

    /** Worker side: @p n more requests completed (or, from the
     *  submitter, were never queued).  Wakes the waiter when none
     *  is left or, with @p wake, at once. */
    void finish(std::size_t n, bool wake = false);

    const std::vector<unsigned> shards_; ///< Shard of each request.
    std::vector<BlockData> results_;
    std::unique_ptr<std::atomic<bool>[]> done_;
    std::atomic<std::size_t> outstanding_;
    /** steady_clock ticks of the last finish(): the deadline's base. */
    std::atomic<std::int64_t> lastProgress_{0};

    std::mutex mu_; ///< Park point, and guards the two below.
    std::condition_variable cv_;
    std::size_t errorIndex_;
    std::exception_ptr error_;
};

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
    /**
     * Enqueue every request of @p requests, in order, and return the
     * group's one completion.  Each shard serves its share FIFO.  A
     * write resolves once it is durable in the shard's ORAM; without
     * a payload it is a cover write: one ORAM access that rewrites
     * the block in place, which the channel and the schedule cannot
     * tell from a write with data.  Blocks only while a target
     * shard's queue is full.
     */
    std::shared_ptr<GroupCompletion>
    submitGroup(std::vector<BlockRequest> requests);

    /** A group of one block read.  The future is deferred: its get()
     *  waits for the group on the caller's thread (spin, then park),
     *  and its wait_for() reports std::future_status::deferred. */
    std::future<BlockData> submitRead(Addr block_index);

    /** A group of one block write (see submitGroup); the future, as
     *  submitRead's, gives the block's contents from before the
     *  write. */
    std::future<BlockData> submitWrite(Addr block_index,
                                       const std::optional<BlockData> &data);

    /* ---- synchronous facade -------------------------------------- */
    BlockData readBlock(Addr block_index);
    void writeBlock(Addr block_index, const BlockData &data);

    /** Byte-granular read; spans blocks (and therefore shards) as
     *  needed, one group fanning the block reads out concurrently. */
    void read(Addr byte_addr, void *out, std::size_t len);

    /** Byte-granular write: one group reads the partial edge blocks,
     *  then one group writes every block. */
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
     * the service frontend sees of the multi-threaded execution; the
     * calibrated gate (verify::compareCalibrated) scores its schedule
     * statistics over such recordings.  Install before submitting
     * traffic and
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
        std::shared_ptr<GroupCompletion> group;
        std::size_t index = 0; ///< Position in the group.
    };

    std::future<BlockData> submitOne(Addr block_index, bool write,
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

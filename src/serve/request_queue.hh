/**
 * @file
 * Bounded multi-producer / single-consumer queue feeding one shard
 * worker of the sharded oblivious memory service (sharded_memory.hh).
 *
 * Producers block while the queue is full -- that is the service's
 * backpressure: a client can never run further ahead of a shard than
 * the queue capacity.  The single consumer drains up to `max` items
 * per wakeup (request batching), amortizing one condition-variable
 * round trip over a whole batch.  A consumer that would rather poll
 * than sleep spins on ready() (spinUntil below) before popBatch.
 *
 * The queue also keeps its own observability counters (depth
 * high-water, producer stalls, nanoseconds spent stalled, the depth
 * each accepted push finds, the size of each delivered batch) because
 * the interesting congestion events happen under the queue's own
 * lock, where the service cannot see them.  They are taken under that
 * lock, so every accepted push and every delivered batch counts
 * exactly once.
 */

#ifndef SECUREDIMM_SERVE_REQUEST_QUEUE_HH
#define SECUREDIMM_SERVE_REQUEST_QUEUE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/metrics.hh"

namespace secdimm::serve
{

/**
 * Threads that may hold or claim a CPU for serve at once: the CPUs
 * this process may run on, less one left for the threads that submit.
 */
unsigned spinCap();

/**
 * Threads that hold or will claim a CPU for serve right now: shard
 * workers serving a batch, threads spinning in spinUntil, and
 * waiters parked on a group, each of which wants a CPU back the
 * moment its group completes.
 */
inline std::atomic<unsigned> busyThreads{0};

/** Counts the calling thread in busyThreads for its lifetime. */
class BusyThread
{
  public:
    BusyThread() { busyThreads.fetch_add(1, std::memory_order_relaxed); }
    ~BusyThread() { busyThreads.fetch_sub(1, std::memory_order_relaxed); }

    BusyThread(const BusyThread &) = delete;
    BusyThread &operator=(const BusyThread &) = delete;
};

/**
 * Poll @p ready, yielding between polls, for at most @p bound; true
 * once it holds.  Cheaper than a condition-variable wakeup when the
 * wait is short, which is why serve's waits spin before they park.
 * A spinner must not take a CPU from the work it waits for, so when
 * busyThreads has already reached spinCap() it returns false at once
 * and the caller parks.
 */
template <typename Ready>
bool
spinUntil(std::chrono::nanoseconds bound, Ready ready)
{
    if (ready())
        return true;
    if (busyThreads.fetch_add(1, std::memory_order_relaxed) >=
        spinCap()) {
        busyThreads.fetch_sub(1, std::memory_order_relaxed);
        return false;
    }
    const auto end = std::chrono::steady_clock::now() + bound;
    bool ok = false;
    do {
        std::this_thread::yield();
        ok = ready();
    } while (!ok && std::chrono::steady_clock::now() < end);
    busyThreads.fetch_sub(1, std::memory_order_relaxed);
    return ok;
}

/** Bounded blocking MPSC queue with batch pop and close semantics. */
template <typename T>
class BoundedMpscQueue
{
  public:
    explicit BoundedMpscQueue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    BoundedMpscQueue(const BoundedMpscQueue &) = delete;
    BoundedMpscQueue &operator=(const BoundedMpscQueue &) = delete;

    /**
     * Enqueue @p item, blocking while the queue is full.  Returns
     * false (and drops the item) once the queue is closed.  With
     * @p wake_consumer false a parked consumer is not woken (unless the
     * queue is full); the producer calls wake() once it has pushed
     * a whole group.
     */
    bool
    push(T item, bool wake_consumer = true)
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (q_.size() >= capacity_ && !closed_) {
            notEmpty_.notify_one(); // Only the consumer makes room.
            ++pushStalls_;
            const auto t0 = std::chrono::steady_clock::now();
            notFull_.wait(lk, [&] {
                return q_.size() < capacity_ || closed_;
            });
            stallNs_ += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
        if (closed_)
            return false;
        depth_.sample(q_.size());
        q_.push_back(std::move(item));
        size_.store(q_.size(), std::memory_order_release);
        if (q_.size() > highWater_)
            highWater_ = q_.size();
        lk.unlock();
        if (wake_consumer)
            notEmpty_.notify_one();
        return true;
    }

    /** Wake a parked consumer (after pushes with wake_consumer false). */
    void
    wake()
    {
        std::lock_guard<std::mutex> lk(mu_);
        notEmpty_.notify_one();
    }

    /**
     * Move up to @p max items into @p out (appended), blocking until
     * at least one item is available or the queue is closed.  Returns
     * the number of items delivered; 0 means closed *and* drained, so
     * the consumer can exit.  Items already queued at close() time
     * are still delivered -- shutdown never drops accepted work.
     */
    std::size_t
    popBatch(std::vector<T> &out, std::size_t max)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notEmpty_.wait(lk, [&] { return !q_.empty() || closed_; });
        std::size_t n = 0;
        while (n < max && !q_.empty()) {
            out.push_back(std::move(q_.front()));
            q_.pop_front();
            ++n;
        }
        size_.store(q_.size(), std::memory_order_relaxed);
        if (n > 0)
            batch_.sample(n);
        lk.unlock();
        if (n > 0)
            notFull_.notify_all();
        return n;
    }

    /** Reject future pushes; queued items remain poppable. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
            closing_.store(true, std::memory_order_release);
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return q_.size();
    }

    std::size_t capacity() const { return capacity_; }

    /**
     * popBatch would return without blocking: an item is queued or
     * the queue is closed.  Lock-free, so a consumer can poll it.
     */
    bool
    ready() const
    {
        return size_.load(std::memory_order_acquire) != 0 ||
               closing_.load(std::memory_order_acquire);
    }

    /** Deepest the queue has ever been. */
    std::size_t
    highWater() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return highWater_;
    }

    /** Number of pushes that had to wait for space. */
    std::uint64_t
    pushStalls() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return pushStalls_;
    }

    /** Wall-clock nanoseconds producers spent blocked on space. */
    std::uint64_t
    stallNs() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return stallNs_;
    }

    /** Queue depth each accepted push found, one sample per push. */
    util::LogHistogram
    depthHistogram() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return depth_;
    }

    /** Size of each batch popBatch delivered, one sample per batch. */
    util::LogHistogram
    batchHistogram() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return batch_;
    }

  private:
    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<T> q_;
    const std::size_t capacity_;
    bool closed_ = false;
    /** Lock-free mirrors of q_.size() and closed_ for ready(). */
    std::atomic<std::size_t> size_{0};
    std::atomic<bool> closing_{false};
    std::size_t highWater_ = 0;
    std::uint64_t pushStalls_ = 0;
    std::uint64_t stallNs_ = 0;
    util::LogHistogram depth_;
    util::LogHistogram batch_;
};

} // namespace secdimm::serve

#endif // SECUREDIMM_SERVE_REQUEST_QUEUE_HH

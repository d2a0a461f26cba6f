/**
 * @file
 * Bounded multi-producer / single-consumer queue feeding one shard
 * worker of the sharded oblivious memory service (sharded_memory.hh).
 *
 * Producers block while the queue is full -- that is the service's
 * backpressure: a client can never run further ahead of a shard than
 * the queue capacity.  The single consumer drains up to `max` items
 * per wakeup (request batching), amortizing one condition-variable
 * round trip over a whole batch.
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

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "util/metrics.hh"

namespace secdimm::serve
{

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
     * false (and drops the item) once the queue is closed.
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (q_.size() >= capacity_ && !closed_) {
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
        if (q_.size() > highWater_)
            highWater_ = q_.size();
        lk.unlock();
        notEmpty_.notify_one();
        return true;
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
    std::size_t highWater_ = 0;
    std::uint64_t pushStalls_ = 0;
    std::uint64_t stallNs_ = 0;
    util::LogHistogram depth_;
    util::LogHistogram batch_;
};

} // namespace secdimm::serve

#endif // SECUREDIMM_SERVE_REQUEST_QUEUE_HH

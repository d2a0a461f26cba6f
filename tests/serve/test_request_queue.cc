/**
 * @file
 * BoundedMpscQueue unit tests: FIFO order, batch pop bounds, the
 * blocking backpressure path, close semantics (accepted items still
 * drain, later pushes are rejected), the congestion counters,
 * including the depth and batch-size histograms taken under the
 * queue's lock, ready() for polling consumers, and the spinner cap
 * of spinUntil.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/request_queue.hh"

namespace secdimm::serve
{
namespace
{

TEST(BoundedMpscQueue, FifoOrderAndBatchBound)
{
    BoundedMpscQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(i));
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 4), 4u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.popBatch(out, 100), 6u); // Drains the rest, appended.
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(out.back(), 9);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedMpscQueue, PushBlocksWhenFullUntilConsumerDrains)
{
    BoundedMpscQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    std::thread producer([&] {
        EXPECT_TRUE(q.push(3)); // Blocks until the pop below.
    });
    // Give the producer a moment to hit the full queue.  (A sleep
    // cannot prove blocking, but the stall counter below can.)
    while (q.pushStalls() == 0)
        std::this_thread::yield();
    std::vector<int> out;
    EXPECT_GE(q.popBatch(out, 1), 1u);
    producer.join();
    EXPECT_EQ(q.pushStalls(), 1u);
    EXPECT_EQ(q.highWater(), 2u); // Never exceeded capacity.
    std::vector<int> rest;
    q.popBatch(rest, 10);
    EXPECT_EQ(rest, (std::vector<int>{2, 3}));
}

TEST(BoundedMpscQueue, CloseDrainsAcceptedThenRejects)
{
    BoundedMpscQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    q.close();
    EXPECT_FALSE(q.push(3)); // Rejected after close.
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 10), 2u); // Accepted items still drain.
    EXPECT_EQ(q.popBatch(out, 10), 0u); // 0 = closed and empty.
    EXPECT_TRUE(q.closed());
}

TEST(BoundedMpscQueue, CloseWakesBlockedProducer)
{
    BoundedMpscQueue<int> q(1);
    EXPECT_TRUE(q.push(1));
    std::thread producer([&] {
        EXPECT_FALSE(q.push(2)); // Blocked on full, woken by close.
    });
    while (q.pushStalls() == 0)
        std::this_thread::yield();
    q.close();
    producer.join();
    EXPECT_GT(q.stallNs(), 0u);
}

TEST(BoundedMpscQueue, ManyProducersOneConsumer)
{
    constexpr unsigned kProducers = 4;
    constexpr int kPerProducer = 500;
    BoundedMpscQueue<int> q(8);
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(q.push(static_cast<int>(p) * kPerProducer + i));
        });
    }
    std::vector<int> all;
    while (all.size() < kProducers * kPerProducer)
        q.popBatch(all, 7);
    for (auto &p : producers)
        p.join();
    // Per-producer FIFO survives interleaving.
    std::vector<int> last(kProducers, -1);
    for (int v : all) {
        const int p = v / kPerProducer;
        EXPECT_LT(last[p], v % kPerProducer);
        last[p] = v % kPerProducer;
    }
    EXPECT_LE(q.highWater(), 8u);
}

TEST(BoundedMpscQueue, CloseWhileProducersBlockedOnFullQueue)
{
    // Producers parked in push() on a FULL queue must all unblock at
    // close() with a definite outcome: the item is rejected (false),
    // never silently enqueued past the close nor left hanging.
    constexpr unsigned kProducers = 3;
    BoundedMpscQueue<int> q(2);
    ASSERT_TRUE(q.push(100));
    ASSERT_TRUE(q.push(101));

    std::atomic<unsigned> rejected{0};
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, &rejected, p] {
            if (!q.push(static_cast<int>(200 + p)))
                ++rejected;
        });
    }
    // Wait until every producer is provably parked on the full queue.
    while (q.pushStalls() < kProducers)
        std::this_thread::yield();

    q.close();
    for (auto &p : producers)
        p.join();
    EXPECT_EQ(rejected.load(), kProducers);

    // Items accepted before the close still drain, then the consumer
    // sees the closed-and-empty signal.
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 10), 2u);
    EXPECT_EQ(out, (std::vector<int>{100, 101}));
    EXPECT_EQ(q.popBatch(out, 10), 0u);
    EXPECT_FALSE(q.push(7));
}

TEST(BoundedMpscQueue, EveryAcceptedPushSamplesTheDepthItFound)
{
    BoundedMpscQueue<int> q(8);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(q.push(i)); // Finds depths 0, 1, 2.
    std::vector<int> out;
    ASSERT_EQ(q.popBatch(out, 2), 2u);
    ASSERT_TRUE(q.push(3)); // Finds depth 1.
    const util::LogHistogram h = q.depthHistogram();
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 0.0 + 1 + 2 + 1);
    EXPECT_EQ(h.max(), 2u);
}

TEST(BoundedMpscQueue, EveryDeliveredBatchSamplesItsSize)
{
    BoundedMpscQueue<int> q(16);
    for (int i = 0; i < 11; ++i)
        ASSERT_TRUE(q.push(i));
    std::vector<int> out;
    std::size_t delivered = 0, batches = 0;
    while (delivered < 11) {
        delivered += q.popBatch(out, 4); // Batches of 4, 4, 3.
        ++batches;
    }
    const util::LogHistogram h = q.batchHistogram();
    EXPECT_EQ(h.count(), batches);
    EXPECT_EQ(h.sum(), static_cast<double>(delivered));
    EXPECT_EQ(h.max(), 4u);
    q.close();
    EXPECT_EQ(q.popBatch(out, 4), 0u); // The empty close signal...
    EXPECT_EQ(q.batchHistogram().count(), batches); // ...is no batch.
}

TEST(BoundedMpscQueue, PushAfterCloseCountsNothing)
{
    BoundedMpscQueue<int> q(4);
    ASSERT_TRUE(q.push(1));
    q.close();
    EXPECT_FALSE(q.push(2));
    EXPECT_EQ(q.depthHistogram().count(), 1u);
    EXPECT_EQ(q.highWater(), 1u);
    EXPECT_EQ(q.pushStalls(), 0u);
}

TEST(BoundedMpscQueue, ReadyTracksItemsAndClose)
{
    BoundedMpscQueue<int> q(4);
    EXPECT_FALSE(q.ready());
    ASSERT_TRUE(q.push(1));
    EXPECT_TRUE(q.ready());
    std::vector<int> out;
    q.popBatch(out, 4);
    EXPECT_FALSE(q.ready());
    q.close();
    EXPECT_TRUE(q.ready()); // popBatch would return 0 at once.
}

TEST(SpinUntil, ReturnsOnceReadyWithinItsBound)
{
    std::atomic<bool> flag{false};
    std::thread setter([&] { flag.store(true); });
    const bool ok =
        spinUntil(std::chrono::seconds(10), [&] { return flag.load(); });
    setter.join();
    // With no spare CPU the caller parks at once instead.
    if (spinCap() > 0) {
        EXPECT_TRUE(ok);
    }
    EXPECT_TRUE(spinUntil(std::chrono::seconds(0), [] { return true; }));
}

TEST(SpinUntil, ParksAtOnceWhenBusyThreadsFillTheSpareCpus)
{
    // Busy workers and spinners count alike.
    busyThreads.fetch_add(spinCap());
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(spinUntil(std::chrono::seconds(10), [] { return false; }));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    busyThreads.fetch_sub(spinCap());
    EXPECT_EQ(busyThreads.load(), 0u);
}

} // namespace
} // namespace secdimm::serve

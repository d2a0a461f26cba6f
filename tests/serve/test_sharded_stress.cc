/**
 * @file
 * Multi-threaded stress over the sharded service: C concurrent
 * clients, each owning a disjoint slice of the block space that spans
 * every shard, mixing sync and async traffic.  Each client checks
 * read-your-writes against its own shadow copy -- per-client program
 * order must survive arbitrary cross-client interleaving.  This is
 * the suite the TSan CI job leans on.
 */

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "serve/sharded_memory.hh"
#include "util/rng.hh"

namespace secdimm::serve
{
namespace
{

constexpr unsigned kClients = 4;
constexpr unsigned kOpsPerClient = 120;
constexpr unsigned kBlocksPerClient = 24;

ShardedSecureMemory::Options
stressOptions()
{
    ShardedSecureMemory::Options opt;
    opt.shard.protocol = core::SecureMemorySystem::Protocol::PathOram;
    opt.shard.capacityBytes = 1 << 16;
    opt.shard.seed = 5;
    opt.numShards = 4;
    opt.queueCapacity = 8;
    opt.maxBatch = 4;
    return opt;
}

/** Client c owns a contiguous block range crossing all shards. */
Addr
clientBlock(unsigned client, unsigned i)
{
    return static_cast<Addr>(client) * kBlocksPerClient +
           i % kBlocksPerClient;
}

void
clientMix(ShardedSecureMemory &mem, unsigned client)
{
    Rng rng(1000 + client);
    std::vector<BlockData> shadow(kBlocksPerClient, BlockData{});
    std::vector<bool> written(kBlocksPerClient, false);
    for (unsigned i = 0; i < kOpsPerClient; ++i) {
        const unsigned slot =
            static_cast<unsigned>(rng.nextBelow(kBlocksPerClient));
        const Addr block = clientBlock(client, slot);
        if (rng.nextBool(0.5) || !written[slot]) {
            BlockData d{};
            d[0] = static_cast<std::uint8_t>(client);
            d[1] = static_cast<std::uint8_t>(i);
            d[2] = static_cast<std::uint8_t>(slot);
            if (rng.nextBool(0.5)) {
                mem.writeBlock(block, d);
            } else {
                mem.submitWrite(block, d).get();
            }
            shadow[slot] = d;
            written[slot] = true;
        } else {
            const BlockData got = rng.nextBool(0.5)
                                      ? mem.readBlock(block)
                                      : mem.submitRead(block).get();
            EXPECT_EQ(got, shadow[slot])
                << "client " << client << " slot " << slot
                << " lost read-your-writes at op " << i;
        }
    }
}

TEST(ShardedStress, ConcurrentClientsKeepReadYourWrites)
{
    ShardedSecureMemory mem(stressOptions());
    ASSERT_GE(mem.capacityBlocks(),
              static_cast<std::uint64_t>(kClients) * kBlocksPerClient);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back([&mem, c] { clientMix(mem, c); });
    for (auto &t : clients)
        t.join();
    EXPECT_TRUE(mem.integrityOk());
    const util::MetricsRegistry m = mem.metrics();
    EXPECT_GT(m.counter("serve.requests"), 0u);
    EXPECT_EQ(m.counter("core.audit_violations"), 0u);
}

TEST(ShardedStress, PipelinedAsyncWindowsAcrossClients)
{
    ShardedSecureMemory mem(stressOptions());
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&mem, c] {
            // Keep a window of futures in flight, exercising the
            // backpressure path (windows exceed queueCapacity).
            std::vector<std::future<BlockData>> window;
            for (unsigned i = 0; i < kOpsPerClient; ++i) {
                BlockData d{};
                d[0] = static_cast<std::uint8_t>(c);
                window.push_back(
                    mem.submitWrite(clientBlock(c, i), d));
                if (window.size() >= 16) {
                    for (auto &f : window)
                        f.get();
                    window.clear();
                }
            }
            for (auto &f : window)
                f.get();
            // Every block the client touched now reads back its tag.
            for (unsigned i = 0; i < kBlocksPerClient; ++i) {
                EXPECT_EQ(mem.readBlock(clientBlock(c, i))[0],
                          static_cast<std::uint8_t>(c));
            }
        });
    }
    for (auto &t : clients)
        t.join();
    mem.drain();
    EXPECT_TRUE(mem.integrityOk());
}

TEST(ShardedStress, ShutdownRacesWithActiveClients)
{
    // Clients keep submitting while another thread shuts the service
    // down; accepted requests complete, late ones throw cleanly, and
    // nothing leaks (the ASan job) or races (the TSan job).
    ShardedSecureMemory mem(stressOptions());
    std::vector<std::thread> clients;
    std::atomic<unsigned> rejected{0};
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&mem, &rejected, c] {
            std::vector<std::future<BlockData>> fs;
            for (unsigned i = 0; i < kOpsPerClient; ++i) {
                try {
                    fs.push_back(
                        mem.submitWrite(clientBlock(c, i), BlockData{}));
                } catch (const std::runtime_error &) {
                    ++rejected;
                    break;
                }
            }
            for (auto &f : fs)
                f.get(); // Accepted => completed, even past shutdown.
        });
    }
    std::this_thread::yield();
    mem.shutdown();
    for (auto &t : clients)
        t.join();
    SUCCEED(); // Contract: no hang, no broken promise, no crash.
}

} // namespace
} // namespace secdimm::serve

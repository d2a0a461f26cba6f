#include <gtest/gtest.h>

#include <deque>

#include "trace/core_model.hh"

namespace secdimm::trace
{
namespace
{

/** Test double: completes every access a fixed latency later. */
class FixedLatencyBackend : public MemoryBackend
{
  public:
    explicit FixedLatencyBackend(Cycles latency) : latency_(latency) {}

    void setCompletionCallback(CompletionFn fn) override
    {
        onComplete_ = std::move(fn);
    }

    bool canAccept() const override { return pending_.size() < 64; }

    void
    access(std::uint64_t id, Addr, bool, Tick now) override
    {
        pending_.push_back({id, now + latency_});
        ++accesses_;
    }

    Tick
    nextEventAt() const override
    {
        return pending_.empty() ? tickNever : pending_.front().doneAt;
    }

    void
    advanceTo(Tick now) override
    {
        while (!pending_.empty() && pending_.front().doneAt <= now) {
            const auto p = pending_.front();
            pending_.pop_front();
            onComplete_(p.id, p.doneAt);
        }
    }

    bool idle() const override { return pending_.empty(); }
    unsigned attachObserver(const TimedTraceEventFn &) override { return 0; }
    void closeRun(Tick, BackendReport &) override {}

    std::uint64_t accesses() const { return accesses_; }

  private:
    struct Pending
    {
        std::uint64_t id;
        Tick doneAt;
    };
    Cycles latency_;
    std::deque<Pending> pending_;
    CompletionFn onComplete_;
    std::uint64_t accesses_ = 0;
};

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.meanInstGap = 10;
    p.burstMean = 2;
    p.writeFraction = 0.3;
    p.seqProb = 0.2;
    p.footprintBytes = 64ULL << 20; // Far exceeds the test LLC.
    return p;
}

TEST(CoreModel, RunsToCompletionAndCountsRecords)
{
    CacheModel llc(64 << 10, 8);
    FixedLatencyBackend mem(100);
    CoreModel core(CoreParams{}, llc, mem);
    TraceGenerator gen(tinyProfile(), 1);
    const CoreRunResult r = core.run(gen, 100, 500);
    EXPECT_EQ(r.l1Misses, 500u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.llcMisses, 0u);
    EXPECT_TRUE(mem.idle());
}

TEST(CoreModel, HigherMemoryLatencyMoreCycles)
{
    auto cycles_with_latency = [](Cycles lat) {
        CacheModel llc(64 << 10, 8);
        FixedLatencyBackend mem(lat);
        CoreModel core(CoreParams{}, llc, mem);
        TraceGenerator gen(tinyProfile(), 1);
        return core.run(gen, 100, 1000).cycles;
    };
    const Tick fast = cycles_with_latency(50);
    const Tick slow = cycles_with_latency(2000);
    EXPECT_GT(slow, fast * 3);
}

TEST(CoreModel, RobLimitsOverlap)
{
    // With a 1-entry ROB every miss serializes: runtime approaches
    // misses * latency.  With 128 entries bursts overlap.
    auto cycles_with_rob = [](unsigned rob) {
        CacheModel llc(1 << 10, 2); // Tiny LLC: ~everything misses.
        FixedLatencyBackend mem(500);
        CoreParams params;
        params.robEntries = rob;
        CoreModel core(params, llc, mem);
        WorkloadProfile p = tinyProfile();
        p.burstMean = 8; // Plenty of parallelism available.
        TraceGenerator gen(p, 1);
        return core.run(gen, 50, 400).cycles;
    };
    const Tick serial = cycles_with_rob(1);
    const Tick parallel = cycles_with_rob(128);
    EXPECT_GT(serial, parallel * 2);
}

TEST(CoreModel, LlcHitsAvoidMemory)
{
    CacheModel llc(8 << 20, 8); // Big LLC.
    FixedLatencyBackend mem(100);
    CoreModel core(CoreParams{}, llc, mem);
    WorkloadProfile p = tinyProfile();
    p.footprintBytes = 1 << 20; // Fits in the LLC.
    TraceGenerator gen(p, 1);
    // Warm-up long enough for coupon-collector coverage of the 16K
    // distinct blocks under mostly-random addressing.
    const CoreRunResult r = core.run(gen, 200000, 2000);
    // After warming, nearly everything hits.
    EXPECT_LT(static_cast<double>(r.llcMisses) / r.l1Misses, 0.05);
}

TEST(CoreModel, WritebacksIssuedToMemory)
{
    CacheModel llc(4 << 10, 2); // Tiny: high churn.
    FixedLatencyBackend mem(10);
    CoreModel core(CoreParams{}, llc, mem);
    WorkloadProfile p = tinyProfile();
    p.writeFraction = 1.0; // Everything dirty.
    TraceGenerator gen(p, 1);
    const CoreRunResult r = core.run(gen, 500, 1000);
    EXPECT_GT(r.llcWritebacks, 0u);
    // Memory saw misses plus writebacks.
    EXPECT_EQ(mem.accesses(), r.llcMisses + r.llcWritebacks);
}

TEST(CoreModel, InstructionsAccumulateFromGaps)
{
    CacheModel llc(64 << 10, 8);
    FixedLatencyBackend mem(10);
    CoreModel core(CoreParams{}, llc, mem);
    TraceGenerator gen(tinyProfile(), 1);
    const CoreRunResult r = core.run(gen, 0, 1000);
    EXPECT_GT(r.instructions, 1000u); // At least 1 per record here.
    EXPECT_GT(r.ipc(), 0.0);
}

} // namespace
} // namespace secdimm::trace

#include "serve/sharded_memory.hh"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::serve
{

const char *
shardHealthName(ShardHealth h)
{
    switch (h) {
    case ShardHealth::Healthy:
        return "healthy";
    case ShardHealth::Degraded:
        return "degraded";
    case ShardHealth::Failed:
        return "failed";
    }
    return "unknown";
}

core::SecureMemorySystem::Options
ShardedSecureMemory::shardOptions(const Options &options, unsigned i)
{
    core::SecureMemorySystem::Options so = options.shard;
    const unsigned n = options.numShards == 0 ? 1 : options.numShards;
    so.capacityBytes = divCeil(options.shard.capacityBytes, n);
    so.seed = options.shard.seed * 1000003 + i;
    if (i < options.shardFaultPlans.size())
        so.faultPlan = options.shardFaultPlans[i];
    return so;
}

ShardedSecureMemory::ShardedSecureMemory(const Options &options)
    : numShards_(options.numShards == 0 ? 1 : options.numShards),
      maxBatch_(options.maxBatch == 0 ? 1 : options.maxBatch)
{
    shards_.reserve(numShards_);
    queues_.reserve(numShards_);
    std::uint64_t min_local_blocks = 0;
    for (unsigned i = 0; i < numShards_; ++i) {
        shards_.push_back(std::make_unique<core::SecureMemorySystem>(
            shardOptions(options, i)));
        const std::uint64_t local =
            shards_.back()->capacityBytes() / blockBytes;
        min_local_blocks =
            i == 0 ? local : std::min(min_local_blocks, local);
        queues_.push_back(std::make_unique<BoundedMpscQueue<Request>>(
            options.queueCapacity));
        const std::string s = "serve.s" + std::to_string(i);
        accessesName_.push_back(s + ".accesses");
        batchSizeName_.push_back(s + ".batch_size");
        queueDepthName_.push_back(s + ".queue_depth");
    }
    // Uniform interleaving: every shard must be able to hold block
    // indices 0..min-1, so the global space is min * N blocks.
    capacityBlocks_ = min_local_blocks * numShards_;

    health_ = std::make_unique<std::atomic<int>[]>(numShards_);
    for (unsigned i = 0; i < numShards_; ++i)
        health_[i].store(static_cast<int>(ShardHealth::Healthy),
                         std::memory_order_relaxed);

    workers_.reserve(numShards_);
    for (unsigned i = 0; i < numShards_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ShardedSecureMemory::~ShardedSecureMemory()
{
    shutdown();
}

void
ShardedSecureMemory::workerLoop(unsigned shard)
{
    core::SecureMemorySystem &mem = *shards_[shard];
    BoundedMpscQueue<Request> &q = *queues_[shard];
    std::vector<Request> batch;
    batch.reserve(maxBatch_);
    bool failed = false;
    for (;;) {
        batch.clear();
        const std::size_t n = q.popBatch(batch, maxBatch_);
        if (n == 0)
            return; // Closed and fully drained.
        if (held_.load(std::memory_order_relaxed)) {
            std::unique_lock<std::mutex> lk(holdMu_);
            holdCv_.wait(lk, [&] {
                return !held_.load(std::memory_order_relaxed);
            });
        }
        verify::ScheduleRecorder *rec =
            scheduleRecorder_.load(std::memory_order_acquire);
        for (Request &r : batch) {
            /*
             * Graceful shard degradation: once this shard's
             * SecureMemorySystem reaches FailStop, the worker keeps
             * draining its queue (producers blocked on backpressure
             * unblock, shutdown still joins) but every request --
             * including the one that tripped the failure -- resolves
             * with the typed ShardFailedError instead of fabricated
             * zeros.  Healthy shards never notice.
             */
            if (!failed) {
                try {
                    // A cover write (no payload) is served as a read
                    // access: the ORAM rewrites the block in place, and
                    // every protocol makes a read look like a write.
                    BlockData d{};
                    if (r.data)
                        mem.writeBlock(r.local, *r.data);
                    else
                        d = mem.readBlock(r.local);
                    failed = !mem.integrityOk();
                    if (!failed) {
                        // Record before the client is released: its
                        // next request may reach another shard, and
                        // the schedule must keep the order the
                        // channel saw.  A failed shard performs no
                        // protocol access, so it records nothing.
                        if (rec != nullptr)
                            rec->record(shard, r.write);
                        if (r.write)
                            r.writeDone.set_value();
                        else
                            r.readDone.set_value(d);
                    }
                } catch (...) {
                    failed = true;
                }
            }
            if (failed) {
                auto err = std::make_exception_ptr(
                    ShardFailedError(shard));
                if (r.write)
                    r.writeDone.set_exception(err);
                else
                    r.readDone.set_exception(err);
            }
        }
        publishHealth(shard, failed);
        live_.incCounter(accessesName_[shard], n);
        live_.sampleHistogram(batchSizeName_[shard], n);
        noteCompleted(n);
    }
}

void
ShardedSecureMemory::publishHealth(unsigned shard, bool failed)
{
    ShardHealth h = ShardHealth::Healthy;
    if (failed) {
        h = ShardHealth::Failed;
    } else {
        const fault::FaultInjector *inj =
            shards_[shard]->faultInjector();
        if (inj != nullptr && (inj->quarantinedUnits() > 0 ||
                               inj->unrecoveredTotal() > 0 ||
                               inj->retiredUnits() > 0))
            h = ShardHealth::Degraded;
    }
    health_[shard].store(static_cast<int>(h),
                         std::memory_order_release);
}

void
ShardedSecureMemory::noteSubmitted(unsigned shard)
{
    inflight_.fetch_add(1, std::memory_order_relaxed);
    // Depth at submission time: an approximation (other producers
    // race), but the histogram only needs the distribution shape.
    live_.sampleHistogram(queueDepthName_[shard],
                          queues_[shard]->size());
}

void
ShardedSecureMemory::noteCompleted(std::size_t n)
{
    if (inflight_.fetch_sub(n, std::memory_order_acq_rel) ==
        static_cast<std::uint64_t>(n)) {
        std::lock_guard<std::mutex> lk(idleMu_);
        idleCv_.notify_all();
    }
}

std::future<BlockData>
ShardedSecureMemory::submitRead(Addr block_index)
{
    if (block_index >= capacityBlocks_) {
        fatal("ShardedSecureMemory: block %llu out of range "
              "(capacity %llu blocks)",
              static_cast<unsigned long long>(block_index),
              static_cast<unsigned long long>(capacityBlocks_));
    }
    const unsigned shard = shardOf(block_index);
    Request r;
    r.local = localBlock(block_index);
    r.write = false;
    std::future<BlockData> f = r.readDone.get_future();
    noteSubmitted(shard);
    if (!queues_[shard]->push(std::move(r))) {
        noteCompleted(1);
        throw std::runtime_error(
            "ShardedSecureMemory: submitRead after shutdown");
    }
    return f;
}

std::future<void>
ShardedSecureMemory::submitWrite(Addr block_index,
                                 const std::optional<BlockData> &data)
{
    if (block_index >= capacityBlocks_) {
        fatal("ShardedSecureMemory: block %llu out of range "
              "(capacity %llu blocks)",
              static_cast<unsigned long long>(block_index),
              static_cast<unsigned long long>(capacityBlocks_));
    }
    const unsigned shard = shardOf(block_index);
    Request r;
    r.local = localBlock(block_index);
    r.write = true;
    r.data = data;
    std::future<void> f = r.writeDone.get_future();
    noteSubmitted(shard);
    if (!queues_[shard]->push(std::move(r))) {
        noteCompleted(1);
        throw std::runtime_error(
            "ShardedSecureMemory: submitWrite after shutdown");
    }
    return f;
}

BlockData
ShardedSecureMemory::readBlock(Addr block_index)
{
    return submitRead(block_index).get();
}

void
ShardedSecureMemory::writeBlock(Addr block_index, const BlockData &data)
{
    submitWrite(block_index, data).get();
}

BlockData
ShardedSecureMemory::readBlockFor(Addr block_index,
                                  std::chrono::milliseconds deadline)
{
    std::future<BlockData> f = submitRead(block_index);
    if (f.wait_for(deadline) != std::future_status::ready)
        throw RequestTimeoutError(shardOf(block_index), deadline);
    return f.get();
}

void
ShardedSecureMemory::writeBlockFor(Addr block_index,
                                   const BlockData &data,
                                   std::chrono::milliseconds deadline)
{
    std::future<void> f = submitWrite(block_index, data);
    if (f.wait_for(deadline) != std::future_status::ready)
        throw RequestTimeoutError(shardOf(block_index), deadline);
    f.get();
}

void
ShardedSecureMemory::read(Addr byte_addr, void *out, std::size_t len)
{
    struct Segment
    {
        std::uint8_t *dst;
        std::size_t off;
        std::size_t n;
        std::future<BlockData> f;
    };
    std::vector<Segment> segs;
    std::uint8_t *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        // Adjacent blocks land on different shards, so these reads
        // proceed in parallel across the shard workers.
        segs.push_back(Segment{dst, off, n, submitRead(block)});
        dst += n;
        byte_addr += n;
        len -= n;
    }
    for (Segment &s : segs) {
        const BlockData b = s.f.get();
        std::memcpy(s.dst, b.data() + s.off, s.n);
    }
}

void
ShardedSecureMemory::write(Addr byte_addr, const void *data,
                           std::size_t len)
{
    const std::uint8_t *src = static_cast<const std::uint8_t *>(data);
    std::vector<std::future<void>> done;
    while (len > 0) {
        const Addr block = byte_addr / blockBytes;
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        BlockData b{};
        if (off != 0 || n != blockBytes)
            b = readBlock(block); // Read-modify-write.
        std::memcpy(b.data() + off, src, n);
        // FIFO per shard: this write lands after the RMW read above
        // and before any later op this thread issues to the block.
        done.push_back(submitWrite(block, b));
        src += n;
        byte_addr += n;
        len -= n;
    }
    for (auto &f : done)
        f.get();
}

void
ShardedSecureMemory::drain()
{
    std::unique_lock<std::mutex> lk(idleMu_);
    idleCv_.wait(lk, [&] {
        return inflight_.load(std::memory_order_acquire) == 0;
    });
}

void
ShardedSecureMemory::holdWorkers(bool held)
{
    {
        std::lock_guard<std::mutex> lk(holdMu_);
        held_.store(held, std::memory_order_relaxed);
    }
    holdCv_.notify_all();
}

void
ShardedSecureMemory::shutdown()
{
    std::lock_guard<std::mutex> lk(shutdownMu_);
    if (shutdown_.exchange(true))
        return;
    holdWorkers(false);
    for (auto &q : queues_)
        q->close(); // Queued requests still complete (popBatch drains).
    for (auto &w : workers_) {
        if (w.joinable())
            w.join();
    }
}

util::MetricsRegistry
ShardedSecureMemory::metrics()
{
    drain();
    util::MetricsRegistry out;
    out.setCounter("serve.shards", numShards_);
    out.setCounter("serve.max_batch", maxBatch_);
    out.setCounter("serve.queue_capacity", queues_[0]->capacity());
    std::uint64_t total = 0;
    unsigned healthCounts[3] = {0, 0, 0};
    unsigned byzShards = 0;
    for (unsigned i = 0; i < numShards_; ++i) {
        const std::string s = "serve.s" + std::to_string(i);
        const std::uint64_t acc = live_.counter(accessesName_[i]);
        total += acc;
        out.setCounter(accessesName_[i], acc);
        if (const auto *h = live_.findHistogram(batchSizeName_[i]))
            out.histogram(batchSizeName_[i]).merge(*h);
        if (const auto *h = live_.findHistogram(queueDepthName_[i]))
            out.histogram(queueDepthName_[i]).merge(*h);
        out.setGauge(s + ".queue_high_water",
                     static_cast<double>(queues_[i]->highWater()));
        out.setCounter(s + ".enqueue_stalls",
                       queues_[i]->pushStalls());
        out.setCounter(s + ".stall_ns", queues_[i]->stallNs());
        const ShardHealth h = shardHealth(i);
        out.setGauge(s + ".health", static_cast<double>(h));
        ++healthCounts[static_cast<int>(h)];
        const fault::FaultInjector *inj = shards_[i]->faultInjector();
        if (inj != nullptr && inj->convictedUnits() > 0)
            ++byzShards;
        out.merge(shards_[i]->metrics());
    }
    out.setCounter("serve.requests", total);
    out.setGauge("serve.shard_health.healthy", healthCounts[0]);
    out.setGauge("serve.shard_health.degraded", healthCounts[1]);
    out.setGauge("serve.shard_health.failed", healthCounts[2]);
    // Gated: quiet fleets keep their exact pre-byzantine surface.
    if (byzShards > 0)
        out.setGauge("serve.shard_health.byzantine", byzShards);
    return out;
}

util::MetricsRegistry
ShardedSecureMemory::shardMetrics(unsigned shard)
{
    drain();
    return shards_.at(shard)->metrics();
}

std::uint64_t
ShardedSecureMemory::accessCount()
{
    drain();
    std::uint64_t total = 0;
    for (auto &s : shards_)
        total += s->accessCount();
    return total;
}

bool
ShardedSecureMemory::integrityOk()
{
    drain();
    for (auto &s : shards_) {
        if (!s->integrityOk())
            return false;
    }
    return true;
}

unsigned
ShardedSecureMemory::attachObserver(unsigned shard,
                                    verify::ChannelObserver &observer)
{
    return shards_.at(shard)->attachObserver(observer);
}

} // namespace secdimm::serve

#include "serve/sharded_memory.hh"

#include <cstring>
#include <exception>
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
    // One error object for every request of a failed shard.  The
    // worker holds it until it exits, so a client's catch never races
    // with the object's release (the exception's reference count is
    // invisible to ThreadSanitizer).
    const std::exception_ptr shardFailed =
        std::make_exception_ptr(ShardFailedError(shard));
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
                    const BlockData prior =
                        r.data ? mem.writeBlock(r.local, *r.data)
                               : mem.readBlock(r.local);
                    failed = !mem.integrityOk();
                    if (!failed) {
                        // Record before the client is released: its
                        // next request may reach another shard, and
                        // the schedule must keep the order the
                        // channel saw.  A failed shard performs no
                        // protocol access, so it records nothing.
                        if (rec != nullptr)
                            rec->record(shard, r.write);
                        r.done.set_value(prior);
                    }
                } catch (...) {
                    failed = true;
                }
            }
            if (failed)
                r.done.set_exception(shardFailed);
        }
        publishHealth(shard, failed);
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
ShardedSecureMemory::noteCompleted(std::size_t n)
{
    if (inflight_.fetch_sub(n, std::memory_order_acq_rel) ==
        static_cast<std::uint64_t>(n)) {
        std::lock_guard<std::mutex> lk(idleMu_);
        idleCv_.notify_all();
    }
}

std::future<BlockData>
ShardedSecureMemory::submit(Addr block_index, bool write,
                            std::optional<BlockData> data)
{
    if (block_index >= capacityBlocks_) {
        fatal("ShardedSecureMemory: block %llu out of range "
              "(capacity %llu blocks)",
              static_cast<unsigned long long>(block_index),
              static_cast<unsigned long long>(capacityBlocks_));
    }
    Request r;
    r.local = localBlock(block_index);
    r.write = write;
    r.data = std::move(data);
    std::future<BlockData> f = r.done.get_future();
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (!queues_[shardOf(block_index)]->push(std::move(r))) {
        noteCompleted(1);
        throw std::runtime_error(
            "ShardedSecureMemory: request submitted after shutdown");
    }
    return f;
}

std::future<BlockData>
ShardedSecureMemory::submitRead(Addr block_index)
{
    return submit(block_index, false, std::nullopt);
}

std::future<BlockData>
ShardedSecureMemory::submitWrite(Addr block_index,
                                 const std::optional<BlockData> &data)
{
    return submit(block_index, true, data);
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
    std::vector<std::future<BlockData>> done;
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
        const util::LogHistogram batches = queues_[i]->batchHistogram();
        const auto acc = static_cast<std::uint64_t>(batches.sum());
        total += acc;
        out.setCounter(s + ".accesses", acc);
        out.histogram(s + ".batch_size") = batches;
        out.histogram(s + ".queue_depth") = queues_[i]->depthHistogram();
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

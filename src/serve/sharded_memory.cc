#include "serve/sharded_memory.hh"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "fault/fault_injector.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace secdimm::serve
{

namespace
{

/*
 * How long each end of a handoff polls before it parks (docs/
 * PERFORMANCE.md, "Serve handoff" has the measured curve).  A worker
 * polls its empty queue long enough to bridge a KV client's work
 * between two phases; a client polls its group long enough to cover
 * a whole phase of a small batch.
 */
constexpr std::chrono::microseconds kWorkerSpin{200};
constexpr std::chrono::microseconds kClientSpin{500};

std::int64_t
nowTicks()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

} // namespace

unsigned
spinCap()
{
    static const unsigned cap = [] {
        unsigned cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            cpus = static_cast<unsigned>(CPU_COUNT(&set));
#endif
        return cpus > 1 ? cpus - 1 : 0;
    }();
    return cap;
}

GroupCompletion::GroupCompletion(std::vector<unsigned> shards)
    : shards_(std::move(shards)), results_(shards_.size()),
      done_(std::make_unique<std::atomic<bool>[]>(shards_.size())),
      outstanding_(shards_.size()),
      errorIndex_(std::numeric_limits<std::size_t>::max())
{
}

void
GroupCompletion::fail(std::size_t i, const std::exception_ptr &error)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (i < errorIndex_) {
            errorIndex_ = i;
            error_ = error;
        }
    }
    done_[i].store(true, std::memory_order_release);
}

void
GroupCompletion::finish(std::size_t n, bool wake)
{
    lastProgress_.store(nowTicks(), std::memory_order_relaxed);
    if (outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n ||
        wake) {
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
    }
}

std::vector<BlockData>
GroupCompletion::wait(std::chrono::milliseconds deadline)
{
    const auto complete = [&] {
        return outstanding_.load(std::memory_order_acquire) == 0;
    };
    const std::int64_t start = nowTicks();
    if (!spinUntil(kClientSpin, complete)) {
        const BusyThread parked;
        std::unique_lock<std::mutex> lk(mu_);
        if (deadline.count() <= 0) {
            cv_.wait(lk, complete);
        } else {
            const auto window = std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(deadline);
            while (!complete()) {
                // The deadline runs from the wait's start or the
                // group's last progress, whichever is later.
                const std::chrono::steady_clock::time_point until(
                    std::chrono::steady_clock::duration(std::max(
                        start, lastProgress_.load(
                                   std::memory_order_relaxed))) +
                    window);
                if (std::chrono::steady_clock::now() < until) {
                    cv_.wait_until(lk, until, complete);
                    continue;
                }
                for (std::size_t i = 0; i < shards_.size(); ++i) {
                    if (!done_[i].load(std::memory_order_acquire))
                        throw RequestTimeoutError(shards_[i], deadline);
                }
                // Every request is served; its worker's finish()
                // is on its way.
                cv_.wait(lk, complete);
            }
        }
    }
    if (error_)
        std::rethrow_exception(error_);
    return std::move(results_);
}

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
    // With no spare CPU every request wakes its waiter: one wakeup
    // per group saves nothing on one CPU, and it let the client's own
    // (secret-dependent) work decide where the workers interleave,
    // which the calibrated KV gates catch.
    const bool alone = spinCap() == 0;
    for (;;) {
        batch.clear();
        spinUntil(kWorkerSpin, [&] { return q.ready(); });
        const std::size_t n = q.popBatch(batch, maxBatch_);
        if (n == 0)
            return; // Closed and fully drained.
        if (held_.load(std::memory_order_relaxed)) {
            std::unique_lock<std::mutex> lk(holdMu_);
            holdCv_.wait(lk, [&] {
                return !held_.load(std::memory_order_relaxed);
            });
        }
        busyThreads.fetch_add(1, std::memory_order_relaxed);
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
                        r.group->settle(r.index, prior);
                    }
                } catch (...) {
                    failed = true;
                }
            }
            if (failed)
                r.group->fail(r.index, shardFailed);
            r.group->finish(1, alone);
        }
        publishHealth(shard, failed);
        busyThreads.fetch_sub(1, std::memory_order_relaxed);
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

std::shared_ptr<GroupCompletion>
ShardedSecureMemory::submitGroup(std::vector<BlockRequest> requests)
{
    std::vector<unsigned> shards;
    shards.reserve(requests.size());
    for (const BlockRequest &r : requests) {
        if (r.block >= capacityBlocks_) {
            fatal("ShardedSecureMemory: block %llu out of range "
                  "(capacity %llu blocks)",
                  static_cast<unsigned long long>(r.block),
                  static_cast<unsigned long long>(capacityBlocks_));
        }
        shards.push_back(shardOf(r.block));
    }
    auto group = std::make_shared<GroupCompletion>(std::move(shards));
    const std::size_t total = requests.size();
    inflight_.fetch_add(total, std::memory_order_relaxed);
    // With no spare CPU, parked workers wake once the whole group is
    // queued, not on its first request: a worker woken mid-submission
    // would preempt the client at a point set by the client's own
    // (secret-dependent) work, and the completion order would show
    // it.  With spare CPUs each push wakes its worker at once.
    const bool alone = spinCap() == 0;
    std::vector<bool> touched(numShards_, false);
    const auto wakeTouched = [&] {
        for (unsigned s = 0; s < numShards_; ++s) {
            if (touched[s])
                queues_[s]->wake();
        }
    };
    for (std::size_t i = 0; i < total; ++i) {
        Request q;
        q.local = localBlock(requests[i].block);
        q.write = requests[i].write;
        q.data = std::move(requests[i].data);
        q.group = group;
        q.index = i;
        const unsigned s = group->shards_[i];
        touched[s] = true;
        if (!queues_[s]->push(std::move(q), !alone)) {
            // Requests already queued still complete; the rest were
            // never accepted.
            wakeTouched();
            group->finish(total - i);
            noteCompleted(total - i);
            throw std::runtime_error(
                "ShardedSecureMemory: request submitted after shutdown");
        }
    }
    if (alone)
        wakeTouched();
    return group;
}

std::future<BlockData>
ShardedSecureMemory::submitOne(Addr block_index, bool write,
                               std::optional<BlockData> data)
{
    std::vector<BlockRequest> one(1);
    one[0] = BlockRequest{block_index, write, std::move(data)};
    return std::async(std::launch::deferred,
                      [group = submitGroup(std::move(one))] {
                          return group->wait()[0];
                      });
}

std::future<BlockData>
ShardedSecureMemory::submitRead(Addr block_index)
{
    return submitOne(block_index, false, std::nullopt);
}

std::future<BlockData>
ShardedSecureMemory::submitWrite(Addr block_index,
                                 const std::optional<BlockData> &data)
{
    return submitOne(block_index, true, data);
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
    if (len == 0)
        return;
    const Addr first = byte_addr / blockBytes;
    const Addr last = (byte_addr + len - 1) / blockBytes;
    std::vector<BlockRequest> reads;
    for (Addr b = first; b <= last; ++b)
        reads.push_back(BlockRequest{b, false, std::nullopt});
    // Adjacent blocks land on different shards, so these reads
    // proceed in parallel across the shard workers.
    const std::vector<BlockData> blocks =
        submitGroup(std::move(reads))->wait();
    std::uint8_t *dst = static_cast<std::uint8_t *>(out);
    for (std::size_t i = 0; len > 0; ++i) {
        const std::size_t off = byte_addr % blockBytes;
        const std::size_t n = std::min(len, blockBytes - off);
        std::memcpy(dst, blocks[i].data() + off, n);
        dst += n;
        byte_addr += n;
        len -= n;
    }
}

void
ShardedSecureMemory::write(Addr byte_addr, const void *data,
                           std::size_t len)
{
    if (len == 0)
        return;
    const Addr first = byte_addr / blockBytes;
    const Addr last = (byte_addr + len - 1) / blockBytes;
    std::vector<BlockRequest> writes;
    for (Addr b = first; b <= last; ++b)
        writes.push_back(BlockRequest{b, true, BlockData{}});
    // Read-modify-write: only the partial edge blocks keep bytes the
    // span does not cover.
    std::vector<BlockRequest> edges;
    if (byte_addr % blockBytes != 0)
        edges.push_back(BlockRequest{first, false, std::nullopt});
    if ((byte_addr + len) % blockBytes != 0 &&
        (edges.empty() || last != first))
        edges.push_back(BlockRequest{last, false, std::nullopt});
    if (!edges.empty()) {
        const std::vector<BlockData> old = submitGroup(edges)->wait();
        for (std::size_t e = 0; e < edges.size(); ++e)
            *writes[edges[e].block - first].data = old[e];
    }
    const std::uint8_t *src = static_cast<const std::uint8_t *>(data);
    std::memcpy(writes[0].data->data() + byte_addr % blockBytes, src,
                std::min(len, blockBytes - byte_addr % blockBytes));
    for (std::size_t i = 1; i < writes.size(); ++i) {
        const std::size_t done = (first + i) * blockBytes - byte_addr;
        std::memcpy(writes[i].data->data(), src + done,
                    std::min(len - done, std::size_t{blockBytes}));
    }
    // FIFO per shard: each write lands after the edge reads above
    // and before any later op this thread issues to the block.
    submitGroup(std::move(writes))->wait();
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

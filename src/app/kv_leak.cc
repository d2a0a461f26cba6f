#include "app/kv_leak.hh"

#include <string>
#include <vector>

#include "util/bit_utils.hh"
#include "util/rng.hh"

namespace secdimm::app
{

verify::LeakReport
measureKvHitMissLeak(const KvLeakOptions &opts)
{
    ObliviousKVStore::Options kvopt;
    kvopt.serve.shard.protocol =
        core::SecureMemorySystem::Protocol::PathOram;
    kvopt.serve.numShards = opts.shards;
    kvopt.serve.shard.seed = opts.seed * 1000003 + 5;
    kvopt.capacityKeys = opts.capacityKeys;
    kvopt.maxValueBytes = opts.valueBytes;
    kvopt.index = opts.index;
    kvopt.seed = opts.seed;

    // Size the service for a quarter more slots than keys; the store
    // lays slots out with a stride of roundUp(B, shards) blocks.
    const std::size_t record =
        6 + kvopt.maxKeyBytes + kvopt.maxValueBytes;
    const std::uint64_t blocks_per_slot =
        (record + blockBytes - 1) / blockBytes;
    const std::uint64_t stride =
        divCeil(blocks_per_slot, opts.shards) * opts.shards;
    const std::uint64_t slots =
        kvopt.capacityKeys + kvopt.capacityKeys / 4 + 4;
    kvopt.serve.shard.capacityBytes = slots * stride * blockBytes;

    ObliviousKVStore store(kvopt);
    verify::ScheduleRecorder recorder;
    store.service().setScheduleRecorder(&recorder);

    // Preload half the capacity so the hit phase has keys to hit.
    const std::uint64_t resident = opts.capacityKeys / 2;
    for (std::uint64_t i = 0; i < resident; ++i)
        store.put("leak:k" + std::to_string(i),
                  std::string(opts.valueBytes / 2 + 1, 'v'));
    store.drain();
    recorder.clear();

    Rng draw(opts.seed * 1000003 + 41);
    std::vector<unsigned> secret;
    std::vector<unsigned> visible;
    secret.reserve(opts.requests);
    visible.reserve(opts.requests);

    double sum_hit = 0.0, sum_miss = 0.0;
    std::size_t n_hit = 0, n_miss = 0;
    std::uint64_t miss_counter = 0;

    for (std::size_t r = 0; r < opts.requests; ++r) {
        const unsigned phase =
            static_cast<unsigned>((r / opts.phaseLen) % 2);
        const std::string key =
            phase == 0
                ? "leak:k" + std::to_string(draw.nextBelow(resident))
                : "leak:m" + std::to_string(miss_counter++);
        const std::size_t before = recorder.size();
        (void)store.get(key);
        store.drain();
        const std::size_t events = recorder.size() - before;
        secret.push_back(phase);
        visible.push_back(static_cast<unsigned>(events));
        if (phase == 0) {
            sum_hit += static_cast<double>(events);
            ++n_hit;
        } else {
            sum_miss += static_cast<double>(events);
            ++n_miss;
        }
    }
    store.service().setScheduleRecorder(nullptr);

    verify::LeakReport report;
    report.design = std::string("kv-") +
                    kvIndexModeName(opts.index);
    report.requests = opts.requests;
    report.meanVisibleLocal = n_hit ? sum_hit / n_hit : 0.0;
    report.meanVisibleScatter = n_miss ? sum_miss / n_miss : 0.0;
    report.mi = verify::estimateMutualInformation(secret, visible,
                                                  opts.mi);
    return report;
}

} // namespace secdimm::app

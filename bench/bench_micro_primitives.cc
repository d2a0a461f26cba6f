/**
 * @file
 * google-benchmark microbenchmarks of the substrate primitives: AES,
 * CMAC, CTR transforms, bucket store round trips, stash eviction,
 * tree-layout math, PLB lookups, and raw DRAM-channel throughput.
 * These quantify simulator (host) cost, not simulated time.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/common.hh"
#include "crypto/aes128.hh"
#include "crypto/cmac.hh"
#include "crypto/cpu_features.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/pmmac.hh"
#include "dram/channel.hh"
#include "oram/bucket_store.hh"
#include "oram/plb.hh"
#include "oram/stash.hh"
#include "oram/tree_layout.hh"

using namespace secdimm;

namespace
{

void
BM_Aes128Encrypt(benchmark::State &state)
{
    crypto::Aes128 aes(crypto::makeKey(1, 2));
    crypto::Aes128Block block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Encrypt);

/** The pipelined path: 8 independent blocks per encryptBlocks call. */
void
BM_Aes128EncryptBlocks8(benchmark::State &state)
{
    crypto::Aes128 aes(crypto::makeKey(1, 2));
    std::uint8_t buf[16 * 8] = {};
    for (auto _ : state) {
        aes.encryptBlocks(buf, buf, 8);
        benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16 * 8);
}
BENCHMARK(BM_Aes128EncryptBlocks8);

void
BM_CtrTransformBlock(benchmark::State &state)
{
    crypto::CtrCipher ctr(crypto::makeKey(3, 4));
    BlockData data{};
    std::uint64_t counter = 0;
    for (auto _ : state) {
        ctr.transformBlock(data, 7, ++counter);
        benchmark::DoNotOptimize(data);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * blockBytes);
}
BENCHMARK(BM_CtrTransformBlock);

void
BM_CmacBucketImage(benchmark::State &state)
{
    crypto::Cmac cmac(crypto::makeKey(5, 6));
    std::vector<std::uint8_t> image(320, 0xab);
    for (auto _ : state) {
        auto tag = cmac.compute(image.data(), image.size());
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_CmacBucketImage);

/** A whole path of bucket MACs through the batched CMAC API; 13
 *  buckets is a ~256 KiB tree's path length. */
void
BM_CmacPathBatch(benchmark::State &state)
{
    constexpr std::size_t kPath = 13;
    crypto::Cmac cmac(crypto::makeKey(5, 6));
    std::vector<std::uint8_t> images(kPath * 320, 0xab);
    std::vector<crypto::CmacJob> jobs(kPath);
    for (std::size_t i = 0; i < kPath; ++i)
        jobs[i] = crypto::CmacJob{nullptr, images.data() + 320 * i, 320};
    std::vector<crypto::Aes128Block> tags(kPath);
    for (auto _ : state) {
        cmac.computeBatch(jobs.data(), kPath, tags.data());
        benchmark::DoNotOptimize(tags);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kPath * 320));
}
BENCHMARK(BM_CmacPathBatch);

/** One path's CTR pass: 16 bucket images of 320 B, as on kv_zipf's
 *  tree (a read decrypts, a write encrypts, each one such pass). */
void
BM_CtrTransformPath(benchmark::State &state)
{
    constexpr std::size_t kPath = 16;
    crypto::CtrCipher ctr(crypto::makeKey(3, 4));
    std::vector<std::uint8_t> images(kPath * 320, 0x3c);
    std::uint64_t counter = 0;
    for (auto _ : state) {
        ++counter;
        for (std::size_t i = 0; i < kPath; ++i)
            ctr.transformBuffer(images.data() + 320 * i, 320, i, counter);
        benchmark::DoNotOptimize(images.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kPath * 320));
}
BENCHMARK(BM_CtrTransformPath);

/** Batched PMMAC verification of one path (verify side of a read). */
void
BM_PmmacPathVerifyBatch(benchmark::State &state)
{
    constexpr std::size_t kPath = 13;
    crypto::Pmmac mac(crypto::makeKey(7, 8));
    std::vector<std::uint8_t> images(kPath * 320, 0x5c);
    std::vector<crypto::PmmacItem> items(kPath);
    for (std::size_t i = 0; i < kPath; ++i) {
        items[i] = crypto::PmmacItem{i, 1, images.data() + 320 * i,
                                     320};
    }
    std::vector<crypto::Tag64> expected(kPath);
    mac.tagBatch(items.data(), kPath, expected.data());
    const std::unique_ptr<bool[]> ok(new bool[kPath]);
    for (auto _ : state) {
        const bool all = mac.verifyBatch(items.data(), kPath,
                                         expected.data(), ok.get());
        benchmark::DoNotOptimize(all);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(kPath * 320));
}
BENCHMARK(BM_PmmacPathVerifyBatch);

void
BM_BucketStoreRoundTrip(benchmark::State &state)
{
    oram::BucketStore store(64, 4, crypto::makeKey(1, 1),
                            crypto::makeKey(2, 2));
    oram::Bucket b(4);
    b.slot(0) = oram::BlockSlot{1, 2, BlockData{}};
    std::uint64_t seq = 0;
    for (auto _ : state) {
        store.writeBucket(seq % 64, b);
        auto r = store.readBucket(seq % 64);
        benchmark::DoNotOptimize(r);
        ++seq;
    }
}
BENCHMARK(BM_BucketStoreRoundTrip);

/** One batched path write+read through the store (13 buckets). */
void
BM_BucketStorePathBatch(benchmark::State &state)
{
    constexpr std::size_t kPath = 13;
    oram::BucketStore store(64, 4, crypto::makeKey(1, 1),
                            crypto::makeKey(2, 2));
    const std::size_t img = store.imageBytes();
    std::vector<std::uint8_t> images(kPath * img);
    std::vector<std::uint64_t> seqs;
    for (std::size_t i = 0; i < kPath; ++i) {
        oram::Bucket b(4);
        b.slot(0) = oram::BlockSlot{static_cast<Addr>(i), 2,
                                    BlockData{}};
        b.toImageInto(images.data() + img * i);
        seqs.push_back(i);
    }
    bool ok[kPath] = {};
    for (auto _ : state) {
        store.writeBuckets(seqs.data(), images.data(), kPath);
        store.readBuckets(seqs.data(), kPath, images.data(), ok);
        benchmark::DoNotOptimize(images.data());
        benchmark::DoNotOptimize(ok);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kPath);
}
BENCHMARK(BM_BucketStorePathBatch);

/** One path write-back: 100 stashed blocks onto a 7-bucket path. */
void
BM_StashEvict(benchmark::State &state)
{
    constexpr unsigned kLevels = 6;
    constexpr unsigned kZ = 4;
    std::vector<std::uint8_t> images((kLevels + 1) *
                                     oram::Bucket::imageBytes(kZ));
    for (auto _ : state) {
        state.PauseTiming();
        oram::Stash stash(256);
        for (Addr a = 0; a < 100; ++a)
            stash.put(a, a % 64, BlockData{});
        state.ResumeTiming();
        stash.fillPath(13, kLevels, kZ, images.data());
        benchmark::DoNotOptimize(images.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StashEvict);

void
BM_TreeLayoutPath(benchmark::State &state)
{
    oram::TreeLayout layout(24, 5);
    std::vector<Addr> lines;
    LeafId leaf = 0;
    for (auto _ : state) {
        lines.clear();
        layout.pathLines(leaf++ % layout.numBuckets(), 7, lines);
        benchmark::DoNotOptimize(lines);
    }
}
BENCHMARK(BM_TreeLayoutPath);

void
BM_PlbLookup(benchmark::State &state)
{
    oram::Plb plb(1024, 8);
    for (std::uint64_t i = 0; i < 1024; ++i)
        plb.insert(oram::Plb::makeKey(1, i));
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            plb.lookup(oram::Plb::makeKey(1, i++ % 2048)));
    }
}
BENCHMARK(BM_PlbLookup);

void
BM_DramChannelRandomReads(benchmark::State &state)
{
    dram::Geometry geom;
    geom.ranksPerChannel = 4;
    geom.rowsPerBank = 4096;
    std::uint64_t completed = 0;
    for (auto _ : state) {
        state.PauseTiming();
        dram::DramChannel ch("bench", dram::ddr3_1600(), geom,
                             dram::MapPolicy::RowRankBankCol);
        ch.setCompletionCallback(
            [&](const dram::DramCompletion &) { ++completed; });
        state.ResumeTiming();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (unsigned i = 0; i < 256; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (!ch.canEnqueue(false))
                ch.advanceTo(ch.nextEventAt());
            ch.enqueue(i, x % ch.addressMap().blockCount(), false, 0);
        }
        ch.drain();
    }
    benchmark::DoNotOptimize(completed);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_DramChannelRandomReads);

/**
 * The display reporter --benchmark_format selects (console, json or
 * csv) plus a BENCH_micro_primitives.json snapshot: one design point
 * per microbenchmark, with time-per-iteration and throughput gauges
 * (host cost, not simulated time).
 */
class SnapshotReporter : public benchmark::BenchmarkReporter
{
  public:
    explicit SnapshotReporter(secdimm::bench::JsonReport &report)
        : display_(benchmark::CreateDefaultDisplayReporter()),
          report_(report)
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        return display_->ReportContext(context);
    }

    void Finalize() override { display_->Finalize(); }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        display_->ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string point = run.benchmark_name();
            report_.set(point, "real_time_ns",
                        run.GetAdjustedRealTime());
            report_.set(point, "cpu_time_ns",
                        run.GetAdjustedCPUTime());
            report_.setCount(point, "iterations",
                             static_cast<std::uint64_t>(
                                 run.iterations));
            // Normalized per-primitive cost/throughput so the JSON
            // trail is directly comparable across runs and AES
            // backends (docs/PERFORMANCE.md).
            report_.set(point, "ns_per_op", run.GetAdjustedRealTime());
            const auto bps = run.counters.find("bytes_per_second");
            if (bps != run.counters.end()) {
                report_.set(point, "gb_per_s",
                            static_cast<double>(bps->second) / 1e9);
            }
            report_.setCount(
                point, "aes_impl_id",
                static_cast<std::uint64_t>(
                    static_cast<int>(crypto::activeAesImpl())));
        }
    }

  private:
    benchmark::BenchmarkReporter *display_; ///< Owned by the library.
    secdimm::bench::JsonReport &report_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    secdimm::bench::JsonReport report("micro_primitives");
    // On stderr, so a --benchmark_format=json stdout stays pure JSON.
    std::fprintf(stderr, "aes implementation: %s\n",
                secdimm::crypto::aesImplName(
                    secdimm::crypto::activeAesImpl()));
    SnapshotReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    report.write();
    benchmark::Shutdown();
    return 0;
}

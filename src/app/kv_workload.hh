/**
 * @file
 * Realistic KV workload engine: seeded zipfian, hot-set, scan-heavy,
 * and multi-tenant mix generators sharing one WorkloadSpec JSON
 * schema (docs/KVSTORE.md).  One spec + one seed reproduces the exact
 * op stream everywhere it is consumed: the ObliviousKVStore benches
 * (bench_kv_throughput), the trace_replay CLI (--workload=...), the
 * leak meter's KV experiment, and the chaos campaigns.
 *
 * The zipfian sampler is the standard YCSB construction (theta in
 * (0, 1)); ranks are scrambled through splitmix64 so "hot" keys
 * scatter over the id space instead of clustering at low ids.
 */

#ifndef SECUREDIMM_APP_KV_WORKLOAD_HH
#define SECUREDIMM_APP_KV_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/record_source.hh"
#include "util/rng.hh"

namespace secdimm::app
{

/** Key-popularity shapes the engine can generate. */
enum class KvWorkloadKind
{
    Zipfian, ///< YCSB-style zipf(theta) popularity.
    HotSet,  ///< hotOpFraction of ops on a hotKeyFraction key subset.
    Scan,    ///< Sequential sweeps of scanLen keys, then jump.
    Mix,     ///< Weighted blend of tenant sub-specs.
};

const char *kvWorkloadKindName(KvWorkloadKind kind);

/** One workload description; serializable as JSON (docs/KVSTORE.md). */
struct KvWorkloadSpec
{
    KvWorkloadKind kind = KvWorkloadKind::Zipfian;

    /** Key namespace prefix; tenants of a mix must differ. */
    std::string tenant = "t0";

    /** Resident key population (preloaded before measurement). */
    std::uint64_t keys = 512;

    /** Zipfian skew, in (0, 1); 0.99 is the YCSB default. */
    double zipfTheta = 0.99;

    /** HotSet: fraction of ops aimed at the hot subset, and the hot
     *  subset's size as a fraction of the population. */
    double hotOpFraction = 0.9;
    double hotKeyFraction = 0.1;

    /** Scan: keys touched per sweep before jumping elsewhere. */
    std::uint64_t scanLen = 64;

    /** Op mix: P(get); the rest are puts. */
    double getFraction = 0.8;

    /** P(a get targets an absent key) -- exercises the miss path. */
    double missFraction = 0.0;

    /** Value payload size (bytes) this workload writes/expects. */
    std::size_t valueBytes = 96;

    /** Mix only: tenant sub-specs and their op-share weights
     *  (parallel vectors; weights need not be normalized). */
    std::vector<KvWorkloadSpec> tenants;
    std::vector<double> weights;
};

/** One generated operation. */
struct KvOp
{
    std::string key;
    std::string value; ///< Put payload (empty for gets).
    bool put = false;
    /** The generator aimed at a never-inserted key (miss traffic). */
    bool expectAbsent = false;
};

/** YCSB zipfian rank sampler over [0, n), theta in (0, 1). */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta);
    std::uint64_t sample(Rng &rng) const;

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    double zeta2_;
    double alpha_;
    double eta_;
};

/**
 * Deterministic op stream for one spec + seed.  The value written for
 * (key, op-index) is a pure function of both, so replays can check
 * read-your-writes without recording payloads.
 */
class KvWorkloadGenerator
{
  public:
    KvWorkloadGenerator(const KvWorkloadSpec &spec, std::uint64_t seed);

    /** Produce the next operation. */
    KvOp next();

    /** Put ops that install the resident population (run before
     *  measuring so gets hit unless missFraction says otherwise). */
    std::vector<KvOp> preload() const;

    const KvWorkloadSpec &spec() const { return spec_; }

    /** The deterministic payload next() writes for @p key at write
     *  sequence number @p version. */
    static std::string valueFor(const std::string &key,
                                std::uint64_t version,
                                std::size_t value_bytes);

  private:
    std::string keyName(std::uint64_t id) const;
    std::uint64_t drawKeyId();

    KvWorkloadSpec spec_;
    Rng rng_;
    std::uint64_t opIndex_ = 0;
    std::uint64_t missCounter_ = 0;

    /** Zipfian state. */
    std::unique_ptr<ZipfSampler> zipf_;

    /** Scan state. */
    std::uint64_t scanCursor_ = 0;
    std::uint64_t scanLeft_ = 0;

    /** Mix state. */
    std::vector<std::unique_ptr<KvWorkloadGenerator>> tenants_;
    std::vector<double> cumWeights_;
};

/* ---- WorkloadSpec JSON --------------------------------------------- */

/** Serialize a spec (round-trips through kvWorkloadSpecFromJson). */
std::string kvWorkloadSpecToJson(const KvWorkloadSpec &spec,
                                 int indent = 0);

/**
 * Parse; nullopt on malformed input, including an integer field that
 * is not a plain non-negative integer in range (err gets a
 * diagnostic).
 */
std::optional<KvWorkloadSpec>
kvWorkloadSpecFromJson(const std::string &text,
                       std::string *err = nullptr);

/**
 * Parse a CLI shorthand: "zipfian:<theta>", "hotset:<frac>", "scan",
 * or "mix:<file.json>" (the file holds a full spec, usually of kind
 * mix).  Used by trace_replay --workload= and the benches.
 */
std::optional<KvWorkloadSpec>
parseKvWorkloadFlag(const std::string &flag, std::string *err = nullptr);

/* ---- trace adapter -------------------------------------------------- */

/**
 * Adapts a KV op stream to a trace::RecordSource so the timing
 * simulator (core::runWorkloadFromSource) and trace_replay can replay
 * application-shaped traffic: each op becomes blocksPerSlot
 * consecutive block touches of a hashed slot inside footprintBytes.
 */
class KvBlockStream : public trace::RecordSource
{
  public:
    KvBlockStream(const KvWorkloadSpec &spec, std::uint64_t seed,
                  std::uint64_t footprint_bytes,
                  unsigned blocks_per_slot = 4,
                  double mean_inst_gap = 200.0);

    trace::TraceRecord next() override;

    unsigned blocksPerSlot() const { return blocksPerSlot_; }

  private:
    KvWorkloadGenerator gen_;
    Rng gapRng_;
    std::uint64_t slotCount_;
    unsigned blocksPerSlot_;
    double meanInstGap_;

    /** Blocks of the current op not yet emitted. */
    std::uint64_t curSlot_ = 0;
    unsigned curBlock_ = 0;
    bool curWrite_ = false;
    bool havePending_ = false;
};

} // namespace secdimm::app

#endif // SECUREDIMM_APP_KV_WORKLOAD_HH

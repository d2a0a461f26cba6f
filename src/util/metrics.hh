/**
 * @file
 * Unified observability layer: a registry of named counters, gauges,
 * and log-scale histograms that every simulated component exports
 * into, with JSON serialization so benches can emit machine-readable
 * BENCH_*.json snapshots (see docs/METRICS.md for the namespace and
 * schema).
 *
 * Names are dot-separated paths ("dram.cpu.ch0.row_hits"); each name
 * belongs to exactly one kind.  Re-registering a name under a
 * different kind throws, so a typo cannot silently shadow a metric.
 */

#ifndef SECUREDIMM_UTIL_METRICS_HH
#define SECUREDIMM_UTIL_METRICS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hh"

namespace secdimm::util
{

/**
 * Power-of-two bucketed histogram for non-negative integer samples
 * (queue depths, stash occupancy, byte counts).  Bucket 0 counts the
 * value 0; bucket i >= 1 counts values in [2^(i-1), 2^i).  Log-scale
 * buckets keep the vector short for heavy-tailed distributions while
 * still resolving the small occupancies that matter.
 */
class LogHistogram
{
  public:
    void sample(std::uint64_t v);
    void reset();

    /** Merge another histogram's samples into this one. */
    void merge(const LogHistogram &other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t max() const { return max_; }

    /** Bucket counts; trailing zero buckets are never stored. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Inclusive lower bound of bucket @p i (0, 1, 2, 4, 8, ...). */
    static std::uint64_t bucketLow(std::size_t i);
    /** Inclusive upper bound of bucket @p i (0, 1, 3, 7, 15, ...). */
    static std::uint64_t bucketHigh(std::size_t i);

    /** Deserialization support: install serialized state wholesale. */
    void restore(std::vector<std::uint64_t> buckets, std::uint64_t count,
                 double sum, std::uint64_t max);

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

/**
 * The registry every layer exports into.  Counters are uint64 event
 * counts; gauges are point-in-time doubles (rates, averages, energy);
 * histograms are LogHistograms of repeated samples.
 *
 * A plain value type with no internal locking: an owner that shares
 * one across threads guards it with its own lock.
 */
class MetricsRegistry
{
  public:
    /* --- counters ------------------------------------------------ */
    void incCounter(const std::string &name, std::uint64_t n = 1);
    void setCounter(const std::string &name, std::uint64_t v);
    std::uint64_t counter(const std::string &name) const;

    /* --- gauges -------------------------------------------------- */
    void setGauge(const std::string &name, double v);
    double gauge(const std::string &name) const;

    /* --- histograms ---------------------------------------------- */
    /** Get-or-create; throws std::logic_error on kind collision. */
    LogHistogram &histogram(const std::string &name);
    const LogHistogram *findHistogram(const std::string &name) const;

    bool has(const std::string &name) const;

    /** All metric names, sorted (counters + gauges + histograms). */
    std::vector<std::string> names() const;

    /**
     * Fold @p other in: counters add, gauges overwrite, histograms
     * merge.  Used to aggregate per-instance registries.
     */
    void merge(const MetricsRegistry &other);

    void reset();
    bool empty() const;

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &gauges() const { return gauges_; }
    const std::map<std::string, LogHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Serialize as a JSON object:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count":..,"sum":..,"max":..,"buckets":[..]}}}
     * @param indent  base indentation (two extra spaces per level);
     *                negative emits compact single-line JSON.
     */
    std::string toJson(int indent = 0) const;

    /** Parse toJson() output back; nullopt on malformed input. */
    static std::optional<MetricsRegistry> fromJson(const std::string &text);

  private:
    /** Throws std::logic_error if @p name exists under another kind. */
    void checkKind(const std::string &name, int kind) const;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LogHistogram> histograms_;
};

} // namespace secdimm::util

#endif // SECUREDIMM_UTIL_METRICS_HH

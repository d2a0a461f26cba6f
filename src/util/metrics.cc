#include "util/metrics.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace secdimm::util
{

/* ----------------------------- LogHistogram ----------------------- */

namespace
{

std::size_t
bucketOf(std::uint64_t v)
{
    if (v == 0)
        return 0;
    std::size_t i = 1;
    while (v >>= 1)
        ++i;
    return i; // 1 -> bucket 1, 2..3 -> 2, 4..7 -> 3, ...
}

} // namespace

void
LogHistogram::sample(std::uint64_t v)
{
    const std::size_t idx = bucketOf(v);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    ++count_;
    sum_ += static_cast<double>(v);
    if (v > max_)
        max_ = v;
}

void
LogHistogram::reset()
{
    buckets_.clear();
    count_ = 0;
    max_ = 0;
    sum_ = 0.0;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_)
        max_ = other.max_;
}

std::uint64_t
LogHistogram::bucketLow(std::size_t i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t
LogHistogram::bucketHigh(std::size_t i)
{
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

void
LogHistogram::restore(std::vector<std::uint64_t> buckets,
                      std::uint64_t count, double sum, std::uint64_t max)
{
    buckets_ = std::move(buckets);
    count_ = count;
    sum_ = sum;
    max_ = max;
}

/* ----------------------------- registry --------------------------- */

void
MetricsRegistry::checkKind(const std::string &name, int kind) const
{
    const bool c = counters_.count(name) != 0;
    const bool g = gauges_.count(name) != 0;
    const bool h = histograms_.count(name) != 0;
    if ((c && kind != 0) || (g && kind != 1) || (h && kind != 2))
        throw std::logic_error("metric '" + name +
                               "' already registered with another kind");
}

void
MetricsRegistry::incCounter(const std::string &name, std::uint64_t n)
{
    checkKind(name, 0);
    counters_[name] += n;
}

void
MetricsRegistry::setCounter(const std::string &name, std::uint64_t v)
{
    checkKind(name, 0);
    counters_[name] = v;
}

std::uint64_t
MetricsRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::setGauge(const std::string &name, double v)
{
    checkKind(name, 1);
    gauges_[name] = v;
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

LogHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    checkKind(name, 2);
    return histograms_[name];
}

const LogHistogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return counters_.count(name) || gauges_.count(name) ||
           histograms_.count(name);
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto &kv : counters_)
        out.push_back(kv.first);
    for (const auto &kv : gauges_)
        out.push_back(kv.first);
    for (const auto &kv : histograms_)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    if (this == &other)
        return;
    for (const auto &kv : other.counters_) {
        checkKind(kv.first, 0);
        counters_[kv.first] += kv.second;
    }
    for (const auto &kv : other.gauges_) {
        checkKind(kv.first, 1);
        gauges_[kv.first] = kv.second;
    }
    for (const auto &kv : other.histograms_) {
        checkKind(kv.first, 2);
        histograms_[kv.first].merge(kv.second);
    }
}

void
MetricsRegistry::reset()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

bool
MetricsRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

/* ----------------------------- JSON out --------------------------- */

namespace
{

struct JsonWriter
{
    std::string out;
    int indent;

    explicit JsonWriter(int base) : indent(base) {}

    bool pretty() const { return indent >= 0; }

    void
    newline(int level)
    {
        if (!pretty())
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent + 2 * level), ' ');
    }
};

const char *
pretty_sep(const JsonWriter &w)
{
    return w.pretty() ? ": " : ":";
}

template <typename Map, typename Fn>
void
writeObject(JsonWriter &w, int level, const Map &map, Fn &&value_fn)
{
    w.out += '{';
    bool first = true;
    for (const auto &kv : map) {
        if (!first)
            w.out += ',';
        first = false;
        w.newline(level + 1);
        w.out += jsonQuote(kv.first);
        w.out += pretty_sep(w);
        value_fn(kv.second);
    }
    if (!first)
        w.newline(level);
    w.out += '}';
}

} // namespace

std::string
MetricsRegistry::toJson(int indent) const
{
    JsonWriter w(indent);
    w.out += '{';
    w.newline(1);
    w.out += jsonQuote("counters");
    w.out += pretty_sep(w);
    writeObject(w, 1, counters_, [&](std::uint64_t v) {
        w.out += std::to_string(v);
    });
    w.out += ',';
    w.newline(1);
    w.out += jsonQuote("gauges");
    w.out += pretty_sep(w);
    writeObject(w, 1, gauges_, [&](double v) { w.out += jsonNumber(v); });
    w.out += ',';
    w.newline(1);
    w.out += jsonQuote("histograms");
    w.out += pretty_sep(w);
    writeObject(w, 1, histograms_, [&](const LogHistogram &h) {
        w.out += '{';
        w.newline(3);
        w.out += jsonQuote("count");
        w.out += pretty_sep(w);
        w.out += std::to_string(h.count());
        w.out += ',';
        w.newline(3);
        w.out += jsonQuote("sum");
        w.out += pretty_sep(w);
        w.out += jsonNumber(h.sum());
        w.out += ',';
        w.newline(3);
        w.out += jsonQuote("max");
        w.out += pretty_sep(w);
        w.out += std::to_string(h.max());
        w.out += ',';
        w.newline(3);
        w.out += jsonQuote("buckets");
        w.out += pretty_sep(w);
        w.out += '[';
        for (std::size_t i = 0; i < h.buckets().size(); ++i) {
            if (i)
                w.out += ',';
            w.out += std::to_string(h.buckets()[i]);
        }
        w.out += ']';
        w.newline(2);
        w.out += '}';
    });
    w.newline(0);
    w.out += '}';
    return w.out;
}

std::optional<MetricsRegistry>
MetricsRegistry::fromJson(const std::string &text)
{
    const std::optional<JsonValue> root = parseJson(text);
    if (!root || root->type != JsonValue::Type::Object)
        return std::nullopt;
    MetricsRegistry reg;
    for (const auto &[section, body] : root->object) {
        if (body.type != JsonValue::Type::Object ||
            (section != "counters" && section != "gauges" &&
             section != "histograms"))
            return std::nullopt;
        for (const auto &[name, v] : body.object) {
            if (section == "counters") {
                std::uint64_t c = 0;
                if (!jsonToU64(v, c))
                    return std::nullopt;
                reg.setCounter(name, c);
            } else if (section == "gauges") {
                double g = 0.0;
                if (!jsonToDouble(v, g))
                    return std::nullopt;
                reg.setGauge(name, g);
            } else {
                if (v.type != JsonValue::Type::Object)
                    return std::nullopt;
                std::uint64_t count = 0, max = 0;
                double sum = 0.0;
                std::vector<std::uint64_t> buckets;
                for (const auto &[field, f] : v.object) {
                    bool ok = true;
                    if (field == "count") {
                        ok = jsonToU64(f, count);
                    } else if (field == "sum") {
                        ok = jsonToDouble(f, sum);
                    } else if (field == "max") {
                        ok = jsonToU64(f, max);
                    } else if (field == "buckets" &&
                               f.type == JsonValue::Type::Array) {
                        for (const JsonValue &b : f.array) {
                            buckets.emplace_back();
                            ok = ok && jsonToU64(b, buckets.back());
                        }
                    } else {
                        ok = false;
                    }
                    if (!ok)
                        return std::nullopt;
                }
                reg.histogram(name).restore(std::move(buckets), count,
                                            sum, max);
            }
        }
    }
    return reg;
}

} // namespace secdimm::util

#include "app/kv_workload.hh"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hh"

namespace secdimm::app
{

namespace
{

/** splitmix64 finalizer: the rank/key scrambler. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::optional<KvWorkloadKind>
kindFromName(const std::string &name)
{
    if (name == "zipfian")
        return KvWorkloadKind::Zipfian;
    if (name == "hotset")
        return KvWorkloadKind::HotSet;
    if (name == "scan")
        return KvWorkloadKind::Scan;
    if (name == "mix")
        return KvWorkloadKind::Mix;
    return std::nullopt;
}

bool
specFromValue(const util::JsonValue &v, KvWorkloadSpec &out,
              std::string *err)
{
    using Type = util::JsonValue::Type;
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    if (v.type != Type::Object)
        return fail("workload spec must be a JSON object");
    for (const auto &[key, val] : v.object) {
        bool ok = true;
        if (key == "kind") {
            if (val.type != Type::String)
                return fail("kind must be a string");
            auto k = kindFromName(val.str);
            if (!k)
                return fail("unknown workload kind \"" + val.str +
                            "\"");
            out.kind = *k;
        } else if (key == "tenant") {
            if (val.type != Type::String)
                return fail("tenant must be a string");
            out.tenant = val.str;
        } else if (key == "keys") {
            ok = util::jsonToU64(val, out.keys);
        } else if (key == "zipf_theta") {
            ok = util::jsonToDouble(val, out.zipfTheta);
        } else if (key == "hot_op_fraction") {
            ok = util::jsonToDouble(val, out.hotOpFraction);
        } else if (key == "hot_key_fraction") {
            ok = util::jsonToDouble(val, out.hotKeyFraction);
        } else if (key == "scan_len") {
            ok = util::jsonToU64(val, out.scanLen);
        } else if (key == "get_fraction") {
            ok = util::jsonToDouble(val, out.getFraction);
        } else if (key == "miss_fraction") {
            ok = util::jsonToDouble(val, out.missFraction);
        } else if (key == "value_bytes") {
            std::uint64_t bytes = 0;
            ok = util::jsonToU64(val, bytes, SIZE_MAX);
            out.valueBytes = static_cast<std::size_t>(bytes);
        } else if (key == "tenants") {
            if (val.type != Type::Array)
                return fail("tenants must be an array");
            for (const util::JsonValue &t : val.array) {
                KvWorkloadSpec sub;
                if (!specFromValue(t, sub, err))
                    return false;
                out.tenants.push_back(std::move(sub));
            }
        } else if (key == "weights") {
            if (val.type != Type::Array)
                return fail("weights must be an array");
            for (const util::JsonValue &w : val.array) {
                out.weights.emplace_back();
                ok = ok && util::jsonToDouble(w, out.weights.back());
            }
        } else {
            return fail("unknown workload spec key \"" + key + "\"");
        }
        if (!ok)
            return fail("bad value for workload spec key \"" + key +
                        "\"");
    }
    return true;
}

bool
validateSpec(const KvWorkloadSpec &spec, std::string *err)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    if (spec.kind == KvWorkloadKind::Mix) {
        if (spec.tenants.empty())
            return fail("mix workload needs at least one tenant");
        if (!spec.weights.empty() &&
            spec.weights.size() != spec.tenants.size())
            return fail("weights and tenants must be parallel");
        for (const KvWorkloadSpec &t : spec.tenants)
            if (!validateSpec(t, err))
                return false;
        return true;
    }
    if (spec.keys == 0)
        return fail("workload needs keys > 0");
    if (spec.kind == KvWorkloadKind::Zipfian &&
        (spec.zipfTheta <= 0.0 || spec.zipfTheta >= 1.0))
        return fail("zipf_theta must lie in (0, 1)");
    if (spec.getFraction < 0.0 || spec.getFraction > 1.0 ||
        spec.missFraction < 0.0 || spec.missFraction > 1.0)
        return fail("fractions must lie in [0, 1]");
    return true;
}

} // namespace

const char *
kvWorkloadKindName(KvWorkloadKind kind)
{
    switch (kind) {
      case KvWorkloadKind::Zipfian: return "zipfian";
      case KvWorkloadKind::HotSet: return "hotset";
      case KvWorkloadKind::Scan: return "scan";
      case KvWorkloadKind::Mix: return "mix";
    }
    return "unknown";
}

/* ---- ZipfSampler ---------------------------------------------------- */

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n ? n : 1), theta_(theta)
{
    zetan_ = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                           1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double r = static_cast<double>(n_) *
                     std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t rank = static_cast<std::uint64_t>(r);
    if (rank >= n_)
        rank = n_ - 1;
    return rank;
}

/* ---- KvWorkloadGenerator -------------------------------------------- */

KvWorkloadGenerator::KvWorkloadGenerator(const KvWorkloadSpec &spec,
                                         std::uint64_t seed)
    : spec_(spec), rng_(seed * 1000003 + fnv1a(spec.tenant) % 997)
{
    std::string err;
    if (!validateSpec(spec_, &err))
        throw std::invalid_argument("kv workload: " + err);

    switch (spec_.kind) {
      case KvWorkloadKind::Zipfian:
        zipf_ = std::make_unique<ZipfSampler>(spec_.keys,
                                              spec_.zipfTheta);
        break;
      case KvWorkloadKind::Scan:
        scanCursor_ = 0;
        scanLeft_ = spec_.scanLen;
        break;
      case KvWorkloadKind::Mix: {
        double total = 0.0;
        for (std::size_t i = 0; i < spec_.tenants.size(); ++i) {
            tenants_.push_back(std::make_unique<KvWorkloadGenerator>(
                spec_.tenants[i], seed * 1000003 + i + 1));
            total += spec_.weights.empty() ? 1.0 : spec_.weights[i];
            cumWeights_.push_back(total);
        }
        break;
      }
      case KvWorkloadKind::HotSet:
        break;
    }
}

std::string
KvWorkloadGenerator::keyName(std::uint64_t id) const
{
    return spec_.tenant + ":k" + std::to_string(id);
}

std::string
KvWorkloadGenerator::valueFor(const std::string &key,
                              std::uint64_t version,
                              std::size_t value_bytes)
{
    std::string out;
    out.reserve(value_bytes);
    std::uint64_t h = mix64(fnv1a(key) ^ mix64(version));
    for (std::size_t i = 0; i < value_bytes; ++i) {
        if (i % 8 == 0)
            h = mix64(h);
        out.push_back(
            static_cast<char>('a' + ((h >> ((i % 8) * 8)) % 26)));
    }
    return out;
}

std::uint64_t
KvWorkloadGenerator::drawKeyId()
{
    switch (spec_.kind) {
      case KvWorkloadKind::Zipfian: {
        // Scramble the zipf rank so hot keys scatter over the space.
        const std::uint64_t rank = zipf_->sample(rng_);
        return mix64(rank ^ 0x5eedULL) % spec_.keys;
      }
      case KvWorkloadKind::HotSet: {
        const std::uint64_t hot = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(spec_.keys) *
                   spec_.hotKeyFraction));
        std::uint64_t id;
        if (rng_.nextBool(spec_.hotOpFraction) || hot >= spec_.keys)
            id = rng_.nextBelow(hot);
        else
            id = hot + rng_.nextBelow(spec_.keys - hot);
        return mix64(id ^ 0x407eULL) % spec_.keys;
      }
      case KvWorkloadKind::Scan: {
        if (scanLeft_ == 0) {
            scanCursor_ = rng_.nextBelow(spec_.keys);
            scanLeft_ = spec_.scanLen;
        }
        const std::uint64_t id = scanCursor_;
        scanCursor_ = (scanCursor_ + 1) % spec_.keys;
        --scanLeft_;
        return id;
      }
      case KvWorkloadKind::Mix:
        break;
    }
    return 0;
}

KvOp
KvWorkloadGenerator::next()
{
    if (spec_.kind == KvWorkloadKind::Mix) {
        const double total = cumWeights_.back();
        const double u = rng_.nextDouble() * total;
        std::size_t pick = 0;
        while (pick + 1 < cumWeights_.size() && u >= cumWeights_[pick])
            ++pick;
        return tenants_[pick]->next();
    }

    KvOp op;
    const std::uint64_t version = opIndex_++;
    op.put = !rng_.nextBool(spec_.getFraction);
    if (!op.put && rng_.nextBool(spec_.missFraction)) {
        op.expectAbsent = true;
        op.key = spec_.tenant + ":m" + std::to_string(missCounter_++);
        return op;
    }
    op.key = keyName(drawKeyId());
    if (op.put)
        op.value = valueFor(op.key, version, spec_.valueBytes);
    return op;
}

std::vector<KvOp>
KvWorkloadGenerator::preload() const
{
    std::vector<KvOp> out;
    if (spec_.kind == KvWorkloadKind::Mix) {
        for (const auto &t : tenants_) {
            auto sub = t->preload();
            out.insert(out.end(), std::make_move_iterator(sub.begin()),
                       std::make_move_iterator(sub.end()));
        }
        return out;
    }
    out.reserve(spec_.keys);
    for (std::uint64_t id = 0; id < spec_.keys; ++id) {
        KvOp op;
        op.put = true;
        op.key = keyName(id);
        op.value = valueFor(op.key, 0, spec_.valueBytes);
        out.push_back(std::move(op));
    }
    return out;
}

/* ---- JSON ----------------------------------------------------------- */

std::string
kvWorkloadSpecToJson(const KvWorkloadSpec &spec, int indent)
{
    const std::string pad(static_cast<std::size_t>(
                              indent < 0 ? 0 : indent) *
                              2,
                          ' ');
    const std::string inner = indent < 0 ? "" : pad + "  ";
    const std::string nl = indent < 0 ? "" : "\n";
    std::ostringstream os;
    os << "{" << nl;
    os << inner
       << "\"kind\": " << util::jsonQuote(kvWorkloadKindName(spec.kind))
       << "," << nl;
    os << inner << "\"tenant\": " << util::jsonQuote(spec.tenant) << ","
       << nl;
    os << inner << "\"keys\": " << spec.keys << "," << nl;
    os << inner << "\"zipf_theta\": " << util::jsonNumber(spec.zipfTheta)
       << "," << nl;
    os << inner
       << "\"hot_op_fraction\": " << util::jsonNumber(spec.hotOpFraction)
       << "," << nl;
    os << inner << "\"hot_key_fraction\": "
       << util::jsonNumber(spec.hotKeyFraction) << "," << nl;
    os << inner << "\"scan_len\": " << spec.scanLen << "," << nl;
    os << inner
       << "\"get_fraction\": " << util::jsonNumber(spec.getFraction)
       << "," << nl;
    os << inner
       << "\"miss_fraction\": " << util::jsonNumber(spec.missFraction)
       << "," << nl;
    os << inner << "\"value_bytes\": " << spec.valueBytes;
    if (!spec.tenants.empty()) {
        os << "," << nl << inner << "\"tenants\": [";
        for (std::size_t i = 0; i < spec.tenants.size(); ++i)
            os << (i ? ", " : "")
               << kvWorkloadSpecToJson(spec.tenants[i], -1);
        os << "]";
        os << "," << nl << inner << "\"weights\": [";
        for (std::size_t i = 0; i < spec.tenants.size(); ++i)
            os << (i ? ", " : "")
               << util::jsonNumber(spec.weights.empty()
                                       ? 1.0
                                       : spec.weights[i]);
        os << "]";
    }
    os << nl << pad << "}";
    return os.str();
}

std::optional<KvWorkloadSpec>
kvWorkloadSpecFromJson(const std::string &text, std::string *err)
{
    const std::optional<util::JsonValue> v = util::parseJson(text, err);
    if (!v)
        return std::nullopt;
    KvWorkloadSpec spec;
    if (!specFromValue(*v, spec, err))
        return std::nullopt;
    if (!validateSpec(spec, err))
        return std::nullopt;
    return spec;
}

std::optional<KvWorkloadSpec>
parseKvWorkloadFlag(const std::string &flag, std::string *err)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return std::optional<KvWorkloadSpec>{};
    };
    const std::size_t colon = flag.find(':');
    const std::string name = flag.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : flag.substr(colon + 1);

    KvWorkloadSpec spec;
    if (name == "zipfian") {
        spec.kind = KvWorkloadKind::Zipfian;
        if (!arg.empty()) {
            try {
                spec.zipfTheta = std::stod(arg);
            } catch (const std::exception &) {
                return fail("bad zipfian theta \"" + arg + "\"");
            }
        }
    } else if (name == "hotset") {
        spec.kind = KvWorkloadKind::HotSet;
        if (!arg.empty()) {
            try {
                spec.hotOpFraction = std::stod(arg);
            } catch (const std::exception &) {
                return fail("bad hotset fraction \"" + arg + "\"");
            }
        }
    } else if (name == "scan") {
        spec.kind = KvWorkloadKind::Scan;
        if (!arg.empty()) {
            try {
                spec.scanLen = std::stoull(arg);
            } catch (const std::exception &) {
                return fail("bad scan length \"" + arg + "\"");
            }
        }
    } else if (name == "mix") {
        if (arg.empty())
            return fail("mix needs a spec file: mix:<file.json>");
        std::ifstream in(arg);
        if (!in)
            return fail("cannot open workload spec file \"" + arg +
                        "\"");
        std::ostringstream buf;
        buf << in.rdbuf();
        return kvWorkloadSpecFromJson(buf.str(), err);
    } else {
        return fail("unknown workload \"" + name +
                    "\" (zipfian:<theta>|hotset:<frac>|scan|"
                    "mix:<file>)");
    }
    std::string verr;
    if (!validateSpec(spec, &verr))
        return fail(verr);
    return spec;
}

/* ---- KvBlockStream -------------------------------------------------- */

KvBlockStream::KvBlockStream(const KvWorkloadSpec &spec,
                             std::uint64_t seed,
                             std::uint64_t footprint_bytes,
                             unsigned blocks_per_slot,
                             double mean_inst_gap)
    : gen_(spec, seed), gapRng_(seed * 1000003 + 31),
      blocksPerSlot_(blocks_per_slot ? blocks_per_slot : 1),
      meanInstGap_(mean_inst_gap)
{
    const std::uint64_t slot_bytes =
        static_cast<std::uint64_t>(blocksPerSlot_) * blockBytes;
    slotCount_ = footprint_bytes / slot_bytes;
    if (slotCount_ == 0)
        slotCount_ = 1;
}

trace::TraceRecord
KvBlockStream::next()
{
    trace::TraceRecord rec;
    if (!havePending_) {
        const KvOp op = gen_.next();
        curSlot_ = mix64(fnv1a(op.key)) % slotCount_;
        curBlock_ = 0;
        curWrite_ = op.put;
        havePending_ = true;
        rec.instGap = static_cast<std::uint32_t>(
            gapRng_.nextGeometric(meanInstGap_));
    } else {
        rec.instGap = 1; // Blocks of one op issue back to back.
    }
    rec.addr = (curSlot_ * blocksPerSlot_ + curBlock_) * blockBytes;
    rec.write = curWrite_;
    if (++curBlock_ >= blocksPerSlot_)
        havePending_ = false;
    return rec;
}

} // namespace secdimm::app

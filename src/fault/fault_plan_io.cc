#include "fault/fault_plan_io.hh"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"

namespace secdimm::fault
{

namespace
{

/* ------------------------------------------------------------------ */
/* Mapping JSON <-> FaultPlan                                          */
/* ------------------------------------------------------------------ */

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

bool
parsePermanentKind(const std::string &name, PermanentFaultKind &out,
                   std::string *error)
{
    if (name == "stuck_at")
        out = PermanentFaultKind::StuckAt;
    else if (name == "hard_death")
        out = PermanentFaultKind::HardDeath;
    else if (name == "degraded_latency")
        out = PermanentFaultKind::DegradedLatency;
    else
        return fail(error, "unknown permanent fault kind: " + name);
    return true;
}

using util::JsonValue;
using util::jsonToDouble;
using util::jsonToU64;

/** An integer that fits the plan's 32-bit unsigned fields. */
bool
asUnsigned(const JsonValue &v, unsigned &out)
{
    std::uint64_t u = 0;
    if (!jsonToU64(v, u, std::numeric_limits<unsigned>::max()))
        return false;
    out = static_cast<unsigned>(u);
    return true;
}

bool
parsePermanentFault(const JsonValue &v, PermanentFault &out,
                    std::string *error)
{
    if (v.type != JsonValue::Type::Object)
        return fail(error, "permanent fault entry must be an object");
    for (const auto &[key, val] : v.object) {
        if (key == "kind") {
            if (val.type != JsonValue::Type::String ||
                !parsePermanentKind(val.str, out.kind, error))
                return false;
        } else if (key == "unit") {
            if (!asUnsigned(val, out.unit))
                return fail(error, "unit must be a non-negative integer");
        } else if (key == "at_access") {
            if (!jsonToU64(val, out.atAccess))
                return fail(error, "at_access must be an integer");
        } else if (key == "latency_cycles") {
            if (!jsonToU64(val, out.latencyCycles))
                return fail(error, "latency_cycles must be an integer");
        } else {
            return fail(error, "unknown permanent fault key: " + key);
        }
    }
    return true;
}

bool
parseCorrelatedFailure(const JsonValue &v, CorrelatedFailure &out,
                       std::string *error)
{
    if (v.type != JsonValue::Type::Object)
        return fail(error, "correlated failure entry must be an object");
    for (const auto &[key, val] : v.object) {
        if (key == "units") {
            if (val.type != JsonValue::Type::Array)
                return fail(error, "units must be an array");
            for (const JsonValue &e : val.array) {
                out.units.emplace_back();
                if (!asUnsigned(e, out.units.back()))
                    return fail(error, "units entries must be integers");
            }
        } else if (key == "kind") {
            if (val.type != JsonValue::Type::String ||
                !parsePermanentKind(val.str, out.kind, error))
                return false;
        } else if (key == "at_access") {
            if (!jsonToU64(val, out.atAccess))
                return fail(error, "at_access must be an integer");
        } else if (key == "cascade_gap_accesses") {
            if (!jsonToU64(val, out.cascadeGapAccesses))
                return fail(error,
                            "cascade_gap_accesses must be an integer");
        } else if (key == "latency_cycles") {
            if (!jsonToU64(val, out.latencyCycles))
                return fail(error, "latency_cycles must be an integer");
        } else {
            return fail(error, "unknown correlated failure key: " + key);
        }
    }
    if (out.units.empty())
        return fail(error, "correlated failure needs at least one unit");
    return true;
}

bool
parseByzantineKind(const std::string &name, ByzantineFaultKind &out,
                   std::string *error)
{
    if (name == "persistent_corrupt")
        out = ByzantineFaultKind::PersistentCorrupt;
    else if (name == "duty_cycle_liar")
        out = ByzantineFaultKind::DutyCycleLiar;
    else if (name == "lost_write")
        out = ByzantineFaultKind::LostWrite;
    else if (name == "equivocate")
        out = ByzantineFaultKind::Equivocate;
    else
        return fail(error, "unknown byzantine fault kind: " + name);
    return true;
}

bool
parseByzantineFault(const JsonValue &v, ByzantineFault &out,
                    std::string *error)
{
    if (v.type != JsonValue::Type::Object)
        return fail(error, "byzantine fault entry must be an object");
    for (const auto &[key, val] : v.object) {
        if (key == "kind") {
            if (val.type != JsonValue::Type::String ||
                !parseByzantineKind(val.str, out.kind, error))
                return false;
        } else if (key == "unit") {
            if (!asUnsigned(val, out.unit))
                return fail(error, "unit must be a non-negative integer");
        } else if (key == "duty_cycle") {
            if (!jsonToDouble(val, out.dutyCycle) || out.dutyCycle < 0.0 ||
                out.dutyCycle > 1.0)
                return fail(error, "duty_cycle must be in [0, 1]");
        } else if (key == "from_access") {
            if (!jsonToU64(val, out.fromAccess))
                return fail(error, "from_access must be an integer");
        } else {
            return fail(error, "unknown byzantine fault key: " + key);
        }
    }
    return true;
}

} // namespace

std::string
faultPlanToJson(const FaultPlan &p)
{
    std::ostringstream os;
    os << "{";
    os << "\"dram_bit_flip_rate\":" << util::jsonNumber(p.dramBitFlipRate);
    os << ",\"link_corrupt_rate\":" << util::jsonNumber(p.linkCorruptRate);
    os << ",\"link_drop_rate\":" << util::jsonNumber(p.linkDropRate);
    os << ",\"link_delay_rate\":" << util::jsonNumber(p.linkDelayRate);
    os << ",\"executor_stall_rate\":"
       << util::jsonNumber(p.executorStallRate);
    os << ",\"queue_perturb_rate\":" << util::jsonNumber(p.queuePerturbRate);
    os << ",\"permanent_faults\":[";
    for (std::size_t i = 0; i < p.permanentFaults.size(); ++i) {
        const PermanentFault &f = p.permanentFaults[i];
        if (i)
            os << ",";
        os << "{\"kind\":";
        os << util::jsonQuote(permanentKindName(f.kind));
        os << ",\"unit\":" << f.unit
           << ",\"at_access\":" << f.atAccess
           << ",\"latency_cycles\":" << f.latencyCycles << "}";
    }
    os << "],\"correlated_failures\":[";
    for (std::size_t i = 0; i < p.correlatedFailures.size(); ++i) {
        const CorrelatedFailure &g = p.correlatedFailures[i];
        if (i)
            os << ",";
        os << "{\"units\":[";
        for (std::size_t j = 0; j < g.units.size(); ++j) {
            if (j)
                os << ",";
            os << g.units[j];
        }
        os << "],\"kind\":";
        os << util::jsonQuote(permanentKindName(g.kind));
        os << ",\"at_access\":" << g.atAccess
           << ",\"cascade_gap_accesses\":" << g.cascadeGapAccesses
           << ",\"latency_cycles\":" << g.latencyCycles << "}";
    }
    os << "],\"byzantine_faults\":[";
    for (std::size_t i = 0; i < p.byzantineFaults.size(); ++i) {
        const ByzantineFault &b = p.byzantineFaults[i];
        if (i)
            os << ",";
        os << "{\"kind\":";
        os << util::jsonQuote(byzantineKindName(b.kind));
        os << ",\"unit\":" << b.unit
           << ",\"duty_cycle\":" << util::jsonNumber(b.dutyCycle)
           << ",\"from_access\":" << b.fromAccess << "}";
    }
    os << "],\"max_retries\":" << p.maxRetries;
    os << ",\"stall_cycles\":" << p.stallCycles;
    os << ",\"seed\":" << p.seed;
    os << ",\"watchdog_deadline_cycles\":" << p.watchdogDeadlineCycles;
    os << ",\"watchdog_backoff_base\":" << p.watchdogBackoffBase;
    os << ",\"watchdog_backoff_cap_cycles\":"
       << p.watchdogBackoffCapCycles;
    os << ",\"watchdog_max_probes\":" << p.watchdogMaxProbes;
    os << ",\"retire_ewma_alpha\":" << util::jsonNumber(p.retireEwmaAlpha);
    os << ",\"retire_tax_threshold_cycles\":"
       << p.retireTaxThresholdCycles;
    os << ",\"retire_hysteresis_accesses\":"
       << p.retireHysteresisAccesses;
    os << ",\"mistrust_ewma_alpha\":"
       << util::jsonNumber(p.mistrustEwmaAlpha);
    os << ",\"mistrust_convict_threshold\":"
       << util::jsonNumber(p.mistrustConvictThreshold);
    os << ",\"mistrust_hysteresis_accesses\":"
       << p.mistrustHysteresisAccesses;
    os << ",\"mistrust_min_evidence\":" << p.mistrustMinEvidence;
    os << "}";
    return os.str();
}

std::optional<FaultPlan>
faultPlanFromJson(const std::string &text, std::string *error)
{
    const std::optional<JsonValue> root = util::parseJson(text, error);
    if (!root)
        return std::nullopt;
    if (root->type != JsonValue::Type::Object) {
        fail(error, "fault plan must be a JSON object");
        return std::nullopt;
    }

    FaultPlan p;
    for (const auto &[key, val] : root->object) {
        bool ok = true;
        if (key == "dram_bit_flip_rate")
            ok = jsonToDouble(val, p.dramBitFlipRate);
        else if (key == "link_corrupt_rate")
            ok = jsonToDouble(val, p.linkCorruptRate);
        else if (key == "link_drop_rate")
            ok = jsonToDouble(val, p.linkDropRate);
        else if (key == "link_delay_rate")
            ok = jsonToDouble(val, p.linkDelayRate);
        else if (key == "executor_stall_rate")
            ok = jsonToDouble(val, p.executorStallRate);
        else if (key == "queue_perturb_rate")
            ok = jsonToDouble(val, p.queuePerturbRate);
        else if (key == "retire_ewma_alpha")
            ok = jsonToDouble(val, p.retireEwmaAlpha);
        else if (key == "max_retries")
            ok = asUnsigned(val, p.maxRetries);
        else if (key == "stall_cycles")
            ok = jsonToU64(val, p.stallCycles);
        else if (key == "seed")
            ok = jsonToU64(val, p.seed);
        else if (key == "watchdog_deadline_cycles")
            ok = jsonToU64(val, p.watchdogDeadlineCycles);
        else if (key == "watchdog_backoff_base")
            ok = jsonToU64(val, p.watchdogBackoffBase);
        else if (key == "watchdog_backoff_cap_cycles")
            ok = jsonToU64(val, p.watchdogBackoffCapCycles);
        else if (key == "watchdog_max_probes")
            ok = asUnsigned(val, p.watchdogMaxProbes);
        else if (key == "retire_tax_threshold_cycles")
            ok = jsonToU64(val, p.retireTaxThresholdCycles);
        else if (key == "retire_hysteresis_accesses")
            ok = asUnsigned(val, p.retireHysteresisAccesses);
        else if (key == "mistrust_ewma_alpha")
            ok = jsonToDouble(val, p.mistrustEwmaAlpha);
        else if (key == "mistrust_convict_threshold")
            ok = jsonToDouble(val, p.mistrustConvictThreshold);
        else if (key == "mistrust_hysteresis_accesses")
            ok = asUnsigned(val, p.mistrustHysteresisAccesses);
        else if (key == "mistrust_min_evidence")
            ok = asUnsigned(val, p.mistrustMinEvidence);
        else if (key == "byzantine_faults") {
            if (val.type != JsonValue::Type::Array) {
                fail(error, "byzantine_faults must be an array");
                return std::nullopt;
            }
            for (const JsonValue &e : val.array) {
                ByzantineFault b;
                if (!parseByzantineFault(e, b, error))
                    return std::nullopt;
                p.byzantineFaults.push_back(b);
            }
        } else if (key == "permanent_faults") {
            if (val.type != JsonValue::Type::Array) {
                fail(error, "permanent_faults must be an array");
                return std::nullopt;
            }
            for (const JsonValue &e : val.array) {
                PermanentFault f;
                if (!parsePermanentFault(e, f, error))
                    return std::nullopt;
                p.permanentFaults.push_back(f);
            }
        } else if (key == "correlated_failures") {
            if (val.type != JsonValue::Type::Array) {
                fail(error, "correlated_failures must be an array");
                return std::nullopt;
            }
            for (const JsonValue &e : val.array) {
                CorrelatedFailure g;
                if (!parseCorrelatedFailure(e, g, error))
                    return std::nullopt;
                p.correlatedFailures.push_back(std::move(g));
            }
        } else {
            fail(error, "unknown fault plan key: " + key);
            return std::nullopt;
        }
        if (!ok) {
            fail(error, "bad value for key: " + key);
            return std::nullopt;
        }
    }
    return p;
}

} // namespace secdimm::fault

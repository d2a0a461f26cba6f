/**
 * @file
 * JSON (de)serialization of FaultPlan, so a chaos campaign is a
 * shippable artifact: tools/sdimm_chaos emits the plan it ran inside
 * its verdict, examples/trace_replay --fault-plan=<file|inline-json>
 * replays any recorded workload under any campaign, and CI attaches
 * failing-seed plans as reproducers.  The schema is the plan's field
 * names verbatim (docs/FAULTS.md "Campaign schema"); unknown keys are
 * rejected, so a typo'd campaign fails loudly instead of silently
 * running the default plan.
 */

#ifndef SECUREDIMM_FAULT_FAULT_PLAN_IO_HH
#define SECUREDIMM_FAULT_FAULT_PLAN_IO_HH

#include <optional>
#include <string>

#include "fault/fault_plan.hh"

namespace secdimm::fault
{

/** Render @p plan as one compact JSON object (defaults included). */
std::string faultPlanToJson(const FaultPlan &plan);

/**
 * Parse a plan from JSON text.  Absent keys keep their FaultPlan
 * defaults; malformed JSON, unknown keys, wrong-typed values, or an
 * integer field that is not a plain non-negative integer in range
 * return nullopt with a one-line reason in @p error (when non-null).
 */
std::optional<FaultPlan> faultPlanFromJson(const std::string &text,
                                           std::string *error = nullptr);

} // namespace secdimm::fault

#endif // SECUREDIMM_FAULT_FAULT_PLAN_IO_HH

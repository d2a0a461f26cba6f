/**
 * @file
 * Deterministic seeded fuzzer (no external dependencies) for the
 * attacker-reachable parsers: the Table I command codec, the byte
 * frame codec, sealed link-session messages, the fixed-size
 * protocol message bodies, and the JSON reader.  Every campaign is a
 * pure function of its seed -- a failure reproduces from (seed,
 * iterations) alone, which is what the CI smoke step and
 * docs/VERIFICATION.md rely on.
 *
 * The invariant under test is uniform: malformed input is REJECTED
 * (an error code or nullopt), never asserted on, never misparsed into
 * a valid-looking result, and round-trips of valid input are exact.
 */

#ifndef SECUREDIMM_VERIFY_FUZZ_HH
#define SECUREDIMM_VERIFY_FUZZ_HH

#include <cstdint>
#include <string>

namespace secdimm::verify
{

/** Outcome of one fuzz campaign. */
struct FuzzResult
{
    std::uint64_t iterations = 0;
    std::uint64_t failures = 0;
    /** First failing case, for reproduction ("" when ok). */
    std::string firstFailure;

    bool ok() const { return failures == 0; }
};

/**
 * Fuzz decodeBusCommand/encodeCommand: every Table I command
 * round-trips, random bus activity classifies into exactly one of
 * {Command, NormalAccess, Malformed}, and the classification obeys
 * the reserved-region rule.
 */
FuzzResult fuzzCommandCodec(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz serializeFrame/parseFrame: valid frames round-trip exactly;
 * random buffers, truncations, and bit flips never crash and map to
 * a definite FrameError.
 */
FuzzResult fuzzCommandFrames(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz LinkEndpoint seal/unseal: honest messages unseal to the
 * original plaintext; any single bit flip (opcode, seq, body, MAC),
 * truncation, or replay is rejected with nullopt.
 */
FuzzResult fuzzLinkSession(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz the fixed-size message-body codecs (ACCESS / response /
 * APPEND): round-trips are exact and wrong-size bodies yield nullopt.
 */
FuzzResult fuzzMessageCodecs(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz the JSON reader (util/json.hh) that parses workload specs,
 * fault plans and metrics snapshots: mutated and random documents
 * never crash it, and every accepted document dumps to text that
 * parses back and dumps identically (a fixed point).
 */
FuzzResult fuzzJson(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz the detect-and-retry recovery layer (docs/FAULTS.md): each
 * iteration builds one small secure protocol instance (Independent,
 * Split, or INDEP-SPLIT in rotation) under a randomized FaultPlan and
 * a randomized retry budget, runs a write/read-back workload, and
 * demands the recovery invariants: every injected fault is detected
 * (fault.detected == fault.injected), a campaign with no exhausted
 * budget recovers every fault, returns bit-exact data, and keeps
 * integrityOk(); a campaign WITH an exhausted budget fail-stops
 * (integrityOk() false) instead of serving silently corrupt data.
 *
 * One iteration is a whole mini campaign (dozens of accesses), so
 * meaningful counts are ~1e3-1e5, not the 1e7 of the parser fuzzers.
 */
FuzzResult fuzzFaultRecovery(std::uint64_t seed, std::uint64_t iters);

/**
 * Fuzz the permanent-fault path (docs/FAULTS.md): each iteration
 * builds one secure design (INDEP-2, INDEP-4, or INDEP-SPLIT 2x2 in
 * rotation) under DegradationPolicy::Degraded, kills one seeded unit
 * (stuck-at from boot or hard death at a seeded access index, plus
 * optional light transient noise), runs a write/read-back workload
 * across the death, and demands: the ledger identities hold
 * (detected == injected, recovered + unrecovered == detected), and --
 * whenever nothing exhausted -- the dead unit is quarantined, its
 * blocks evacuated, every block reads back bit-exact, and
 * integrityOk() stays true.
 *
 * One iteration is a whole campaign; meaningful counts are ~1e2-1e4.
 */
FuzzResult fuzzPermanentFaults(std::uint64_t seed, std::uint64_t iters);

} // namespace secdimm::verify

#endif // SECUREDIMM_VERIFY_FUZZ_HH

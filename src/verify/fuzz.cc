#include "verify/fuzz.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "fault/fault_injector.hh"
#include "sdimm/indep_split_oram.hh"
#include "sdimm/independent_oram.hh"
#include "sdimm/link_session.hh"
#include "sdimm/sdimm_command.hh"
#include "sdimm/secure_buffer.hh"
#include "sdimm/split_oram.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace secdimm::verify
{

namespace
{

/** Record a failure, keeping the first description. */
void
fail(FuzzResult &r, const std::string &what)
{
    ++r.failures;
    if (r.firstFailure.empty())
        r.firstFailure = what;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> b(len);
    for (auto &v : b)
        v = static_cast<std::uint8_t>(rng.nextBelow(256));
    return b;
}

} // namespace

FuzzResult
fuzzCommandCodec(std::uint64_t seed, std::uint64_t iters)
{
    using namespace sdimm;
    FuzzResult r;
    Rng rng(seed ^ 0xc0dec);

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;

        // Half the time, start from a real command's encoding.
        if (i % 2 == 0) {
            const auto &all = allCommands();
            const SdimmCommandType type =
                all[static_cast<std::size_t>(rng.nextBelow(all.size()))];
            const DdrEncoding enc = encodeCommand(type);
            const BusDecodeResult dec = decodeBusCommand(
                enc.write, enc.rasRow, enc.casCol, enc.opcode);
            if (dec.status != BusDecodeStatus::Command || !dec.command ||
                *dec.command != type) {
                std::ostringstream os;
                os << "codec: " << commandName(type)
                   << " does not round-trip (iter " << i << ")";
                fail(r, os.str());
            }
            continue;
        }

        // Otherwise: random bus activity.  Bias toward the reserved
        // region so the Malformed class is exercised.
        const bool write = rng.nextBelow(2) == 1;
        const std::uint32_t ras = rng.nextBelow(4) == 0
                                      ? static_cast<std::uint32_t>(
                                            rng.nextBelow(1u << 16))
                                      : 0;
        const std::uint32_t cas =
            static_cast<std::uint32_t>(rng.nextBelow(0x40));
        const std::uint8_t opcode =
            static_cast<std::uint8_t>(rng.nextBelow(256));
        const BusDecodeResult dec = decodeBusCommand(write, ras, cas,
                                                     opcode);
        const bool command_set = dec.command.has_value();
        bool bad = false;
        switch (dec.status) {
          case BusDecodeStatus::Command:
            bad = !command_set || ras != 0;
            break;
          case BusDecodeStatus::NormalAccess:
            bad = command_set || ras == 0;
            break;
          case BusDecodeStatus::Malformed:
            bad = command_set || ras != 0;
            break;
        }
        if (bad) {
            std::ostringstream os;
            os << "codec: inconsistent classification for write=" << write
               << " ras=" << ras << " cas=" << cas
               << " opcode=" << static_cast<unsigned>(opcode) << " (iter "
               << i << ")";
            fail(r, os.str());
        }
        if (decodeCommand(write, ras, cas, opcode) != dec.command)
            fail(r, "codec: lenient and strict decode disagree");
    }
    return r;
}

FuzzResult
fuzzCommandFrames(std::uint64_t seed, std::uint64_t iters)
{
    using namespace sdimm;
    FuzzResult r;
    Rng rng(seed ^ 0xf4a3e);

    // Structure-aware helpers: a random valid frame and its wire form.
    const auto validFrame = [&rng]() {
        const auto &all = allCommands();
        CommandFrame f;
        f.type =
            all[static_cast<std::size_t>(rng.nextBelow(all.size()))];
        if (isLongCommand(f.type)) {
            f.payload = randomBytes(
                rng, 1 + static_cast<std::size_t>(rng.nextBelow(64)));
            f.payload[0] = encodeCommand(f.type).opcode;
        }
        return f;
    };

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;
        const std::uint64_t mode = rng.nextBelow(7);

        if (mode == 0) {
            // Valid frame round-trip.
            const auto &all = allCommands();
            CommandFrame f;
            f.type =
                all[static_cast<std::size_t>(rng.nextBelow(all.size()))];
            if (isLongCommand(f.type)) {
                f.payload = randomBytes(
                    rng, 1 + static_cast<std::size_t>(rng.nextBelow(128)));
                f.payload[0] = encodeCommand(f.type).opcode;
            }
            const std::vector<std::uint8_t> wire = serializeFrame(f);
            const FrameParseResult parsed =
                parseFrame(wire.data(), wire.size());
            if (!parsed.frame || parsed.error != FrameError::None ||
                parsed.frame->type != f.type ||
                parsed.frame->payload != f.payload) {
                std::ostringstream os;
                os << "frames: valid " << commandName(f.type)
                   << " frame rejected with "
                   << frameErrorName(parsed.error) << " (iter " << i
                   << ")";
                fail(r, os.str());
            }
            continue;
        }

        std::vector<std::uint8_t> wire;
        if (mode == 1) {
            // Pure random garbage.
            wire = randomBytes(
                rng, static_cast<std::size_t>(rng.nextBelow(64)));
        } else if (mode == 4) {
            // Splice: prefix of one valid frame + suffix of another.
            // Exercises the header/payload boundary logic with bytes
            // that are individually plausible.
            const std::vector<std::uint8_t> a =
                serializeFrame(validFrame());
            const std::vector<std::uint8_t> b =
                serializeFrame(validFrame());
            const std::size_t cut_a = static_cast<std::size_t>(
                rng.nextBelow(a.size() + 1));
            const std::size_t cut_b = static_cast<std::size_t>(
                rng.nextBelow(b.size() + 1));
            wire.assign(a.begin(),
                        a.begin() + static_cast<std::ptrdiff_t>(cut_a));
            wire.insert(wire.end(),
                        b.begin() + static_cast<std::ptrdiff_t>(cut_b),
                        b.end());
        } else if (mode == 5) {
            // Length-field skew: +/-1 and +/-8 on the 16-bit LE length
            // at wire bytes 2-3, body untouched.  Must map to
            // Truncated / LengthMismatch / Oversize, never misparse.
            wire = serializeFrame(validFrame());
            static const int deltas[4] = {1, -1, 8, -8};
            const int delta =
                deltas[static_cast<std::size_t>(rng.nextBelow(4))];
            const std::uint16_t declared = static_cast<std::uint16_t>(
                wire[2] | (static_cast<unsigned>(wire[3]) << 8));
            const std::uint16_t skewed =
                static_cast<std::uint16_t>(declared + delta);
            wire[2] = static_cast<std::uint8_t>(skewed & 0xff);
            wire[3] = static_cast<std::uint8_t>(skewed >> 8);
        } else if (mode == 6) {
            // Truncate exactly at a field boundary (after the magic,
            // the type, each length byte, the header, the opcode) --
            // the off-by-one-prone cuts a uniform prefix rarely hits.
            wire = serializeFrame(validFrame());
            static const std::size_t cuts[5] = {1, 2, 3, 4, 5};
            const std::size_t cut = std::min(
                cuts[static_cast<std::size_t>(rng.nextBelow(5))],
                wire.size() - 1);
            wire.resize(cut);
        } else {
            // Start from a valid frame and damage it.
            wire = serializeFrame(validFrame());
            if (mode == 2 && !wire.empty()) {
                // Truncate to a strict prefix.
                wire.resize(static_cast<std::size_t>(
                    rng.nextBelow(wire.size())));
            } else if (!wire.empty()) {
                // Flip one bit.
                const std::size_t at = static_cast<std::size_t>(
                    rng.nextBelow(wire.size()));
                wire[at] ^= static_cast<std::uint8_t>(
                    1u << rng.nextBelow(8));
            }
        }

        // The only requirement on hostile input: a definite verdict,
        // and frame XOR error (parse never crashes; the harness runs
        // under ASan/UBSan in CI to back that up).
        const FrameParseResult parsed =
            parseFrame(wire.data(), wire.size());
        if (parsed.frame.has_value() !=
            (parsed.error == FrameError::None)) {
            std::ostringstream os;
            os << "frames: frame/error disagreement on a " << wire.size()
               << "-byte input (iter " << i << ")";
            fail(r, os.str());
        }
        if (parsed.frame) {
            // Whatever parsed must re-serialize to the exact input.
            if (serializeFrame(*parsed.frame) != wire)
                fail(r, "frames: accepted input does not re-serialize");
        }
    }
    return r;
}

FuzzResult
fuzzLinkSession(std::uint64_t seed, std::uint64_t iters)
{
    using namespace sdimm;
    FuzzResult r;
    Rng rng(seed ^ 0x115e55);
    auto link = establishLink(rng);
    LinkEndpoint &cpu = link.first;
    LinkEndpoint &dimm = link.second;

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;
        const std::vector<std::uint8_t> plain = randomBytes(
            rng, 1 + static_cast<std::size_t>(rng.nextBelow(200)));
        const std::uint8_t opcode =
            static_cast<std::uint8_t>(rng.nextBelow(256));
        const SealedMessage msg = cpu.seal(opcode, plain);

        const std::uint64_t mode = rng.nextBelow(4);
        if (mode == 0) {
            // Honest delivery.
            const auto out = dimm.unseal(msg);
            if (!out || *out != plain) {
                std::ostringstream os;
                os << "link: honest message rejected (iter " << i << ")";
                fail(r, os.str());
            }
            continue;
        }

        SealedMessage evil = msg;
        if (mode == 1) {
            // Flip one bit somewhere in (opcode, seq, body, mac).
            const std::uint64_t field = rng.nextBelow(
                3 + (evil.body.empty() ? 0 : 1));
            switch (field) {
              case 0:
                evil.opcode ^= static_cast<std::uint8_t>(
                    1u << rng.nextBelow(8));
                break;
              case 1:
                evil.seq ^= std::uint64_t{1} << rng.nextBelow(64);
                break;
              case 2:
                evil.mac ^= std::uint64_t{1} << rng.nextBelow(64);
                break;
              default:
                evil.body[static_cast<std::size_t>(
                    rng.nextBelow(evil.body.size()))] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                break;
            }
        } else if (mode == 2 && !evil.body.empty()) {
            // Truncate the body.
            evil.body.resize(static_cast<std::size_t>(
                rng.nextBelow(evil.body.size())));
        } else {
            // Replay: deliver honestly, then deliver again.
            if (!dimm.unseal(evil).has_value()) {
                std::ostringstream os;
                os << "link: honest message rejected pre-replay (iter "
                   << i << ")";
                fail(r, os.str());
                continue;
            }
        }

        if (dimm.unseal(evil).has_value()) {
            std::ostringstream os;
            os << "link: tampered/replayed message accepted (mode "
               << mode << ", iter " << i << ")";
            fail(r, os.str());
        }

        // Resynchronize: deliver one honest message so later honest
        // iterations are not mistaken for replays.
        if (mode != 3) {
            const SealedMessage sync = cpu.seal(0, {0x00});
            if (!dimm.unseal(sync).has_value())
                fail(r, "link: endpoint wedged after rejecting forgery");
        }
    }
    return r;
}

FuzzResult
fuzzMessageCodecs(std::uint64_t seed, std::uint64_t iters)
{
    using namespace sdimm;
    FuzzResult r;
    Rng rng(seed ^ 0x6e55a6e);

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;
        const std::uint64_t mode = rng.nextBelow(2);

        if (mode == 0) {
            // Round-trips of random well-formed requests.
            AccessRequest a;
            a.addr = rng.next();
            a.localLeaf = rng.next();
            a.newLocalLeaf = rng.next();
            a.write = rng.nextBelow(2) == 1;
            for (auto &v : a.data)
                v = static_cast<std::uint8_t>(rng.nextBelow(256));
            const auto a2 = unpackAccess(packAccess(a));
            if (!a2 || a2->addr != a.addr ||
                a2->localLeaf != a.localLeaf ||
                a2->newLocalLeaf != a.newLocalLeaf ||
                a2->write != a.write || a2->data != a.data) {
                fail(r, "messages: ACCESS round-trip broken");
            }

            AppendRequest p;
            p.real = rng.nextBelow(2) == 1;
            p.addr = rng.next();
            p.localLeaf = rng.next();
            for (auto &v : p.data)
                v = static_cast<std::uint8_t>(rng.nextBelow(256));
            const auto p2 = unpackAppend(packAppend(p));
            if (!p2 || p2->real != p.real || p2->addr != p.addr ||
                p2->localLeaf != p.localLeaf || p2->data != p.data) {
                fail(r, "messages: APPEND round-trip broken");
            }

            AccessResponse q;
            for (auto &v : q.data)
                v = static_cast<std::uint8_t>(rng.nextBelow(256));
            const auto q2 = unpackResponse(packResponse(q));
            if (!q2 || q2->data != q.data)
                fail(r, "messages: response round-trip broken");
            continue;
        }

        // Arbitrary-size random bodies: only the exact wire size may
        // parse; anything else must yield nullopt, not a crash or a
        // misparse.
        const std::size_t len =
            static_cast<std::size_t>(rng.nextBelow(160));
        const std::vector<std::uint8_t> body = randomBytes(rng, len);
        if (unpackAccess(body).has_value() != (len == accessBodyBytes))
            fail(r, "messages: ACCESS size check broken");
        if (unpackResponse(body).has_value() !=
            (len == responseBodyBytes)) {
            fail(r, "messages: response size check broken");
        }
        if (unpackAppend(body).has_value() != (len == appendBodyBytes))
            fail(r, "messages: APPEND size check broken");
    }
    return r;
}

namespace
{

/** Valid documents the JSON campaign mutates. */
const char *const kJsonCorpus[] = {
    R"({"counters":{"core.accesses":18446744073709551615},)"
    R"("gauges":{"g":-1.5e-7},"histograms":{"h":{"count":3,)"
    R"("sum":6,"max":4,"buckets":[0,1,2]}}})",
    R"({"kind":"mix","tenants":[{"kind":"zipfian","keys":512,)"
    R"("zipf_theta":0.99}],"weights":[1.0,2e0],"tenant":"t\u0001)"
    R"(\"q\"\\\/\b\f\n\r\t\ud83d\ude00"})",
    R"({"seed":9007199254740993,"permanent_faults":[{"kind":)"
    R"("hard_death","unit":1,"at_access":0}],"x":[true,false,null,)"
    R"(-0,0.5,[],{}]})",
    R"(  [ 1 , [ 2 , [ 3 ] ] , "\u00e9" , -12E+3 ]  )",
};

/** Bytes JSON text is made of, for insertions and random documents. */
constexpr char kJsonAlphabet[] = "{}[]:,\"\\/ \t\n-+.0123456789eEtrufalsn"
                                 "bu\x01\x7f\xc3\xa9";

std::string
mutateJson(Rng &rng, std::string doc)
{
    const unsigned edits = 1 + static_cast<unsigned>(rng.nextBelow(4));
    for (unsigned e = 0; e < edits; ++e) {
        const std::size_t pos =
            doc.empty() ? 0 : rng.nextBelow(doc.size() + 1);
        switch (rng.nextBelow(5)) {
          case 0: // Insert one alphabet byte.
            doc.insert(pos, 1,
                       kJsonAlphabet[rng.nextBelow(sizeof kJsonAlphabet -
                                                   1)]);
            break;
          case 1: // Overwrite with a random byte.
            if (pos < doc.size())
                doc[pos] = static_cast<char>(rng.nextBelow(256));
            break;
          case 2: // Delete a short range.
            doc.erase(pos, 1 + rng.nextBelow(8));
            break;
          case 3: // Duplicate a short range in place.
            doc.insert(pos, doc.substr(pos, 1 + rng.nextBelow(16)));
            break;
          default: // Truncate.
            doc.resize(pos);
        }
    }
    return doc;
}

} // namespace

FuzzResult
fuzzJson(std::uint64_t seed, std::uint64_t iters)
{
    FuzzResult r;
    Rng rng(seed ^ 0x15011);
    const std::size_t corpus = sizeof kJsonCorpus / sizeof *kJsonCorpus;

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;
        std::string doc;
        switch (i % 4) {
          case 0: // A corpus document, mutated.
          case 1:
            doc = mutateJson(rng, kJsonCorpus[rng.nextBelow(corpus)]);
            break;
          case 2: // Random alphabet soup.
            for (std::size_t n = rng.nextBelow(64); n > 0; --n)
                doc += kJsonAlphabet[rng.nextBelow(sizeof kJsonAlphabet -
                                                   1)];
            break;
          default: { // Nesting near and past the depth limit.
            const std::size_t depth =
                util::jsonMaxDepth - 4 + rng.nextBelow(8);
            doc = std::string(depth, '[') + std::string(depth, ']');
            if (rng.nextBool(0.5))
                doc = mutateJson(rng, doc);
          }
        }

        const std::optional<util::JsonValue> v = util::parseJson(doc);
        if (!v)
            continue;
        const std::string once = util::dumpJson(*v);
        const std::optional<util::JsonValue> back = util::parseJson(once);
        if (!back || util::dumpJson(*back) != once) {
            std::ostringstream os;
            os << "json: dump of accepted input is not a fixed point "
                  "(iter "
               << i << "): " << once.substr(0, 80);
            fail(r, os.str());
        }
    }
    return r;
}

FuzzResult
fuzzFaultRecovery(std::uint64_t seed, std::uint64_t iters)
{
    FuzzResult r;
    Rng rng(seed ^ 0xfa0175);

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;

        fault::FaultPlan plan;
        plan.seed = rng.next();
        plan.maxRetries = 1 + static_cast<unsigned>(rng.nextBelow(5));
        const auto rate = [&] { return rng.nextBelow(50) / 1000.0; };
        plan.dramBitFlipRate = rate();
        plan.linkCorruptRate = rate();
        plan.linkDropRate = rate();
        plan.linkDelayRate = rate();
        plan.queuePerturbRate = rate();
        fault::FaultInjector inj(plan);

        oram::OramParams tree;
        tree.levels = 3 + static_cast<unsigned>(rng.nextBelow(2));
        tree.stashCapacity = 150;
        const std::uint64_t proto_seed = rng.next();

        // One protocol instance per iteration, in rotation.
        std::unique_ptr<sdimm::IndependentOram> indep;
        std::unique_ptr<sdimm::SplitOram> split;
        std::unique_ptr<sdimm::IndepSplitOram> combo;
        std::uint64_t capacity = 0;
        const unsigned which = i % 3;
        if (which == 0) {
            sdimm::IndependentOram::Params p;
            p.perSdimm = tree;
            p.numSdimms = 2;
            p.transferCapacity = 8;
            indep = std::make_unique<sdimm::IndependentOram>(
                p, proto_seed);
            indep->setFaultInjector(
                &inj, fault::DegradationPolicy::RetryThenStop);
            capacity = indep->capacityBlocks();
        } else if (which == 1) {
            sdimm::SplitOram::Params p;
            p.tree = tree;
            p.slices = 2;
            split = std::make_unique<sdimm::SplitOram>(p, proto_seed);
            split->setFaultInjector(&inj);
            capacity = split->capacityBlocks();
        } else {
            sdimm::IndepSplitOram::Params p;
            p.perGroupTree = tree;
            p.groups = 2;
            p.slicesPerGroup = 2;
            combo =
                std::make_unique<sdimm::IndepSplitOram>(p, proto_seed);
            combo->setFaultInjector(
                &inj, fault::DegradationPolicy::RetryThenStop);
            capacity = combo->capacityBlocks();
        }
        const auto access = [&](Addr a, oram::OramOp op,
                                const BlockData *d) {
            if (indep)
                return indep->access(a, op, d);
            if (split)
                return split->access(a, op, d);
            return combo->access(a, op, d);
        };
        const auto integrity_ok = [&] {
            if (indep)
                return indep->integrityOk();
            if (split)
                return split->integrityOk();
            return combo->integrityOk();
        };

        // Write/read-back workload over a handful of blocks.
        const unsigned blocks = static_cast<unsigned>(
            std::min<std::uint64_t>(capacity, 12));
        std::vector<BlockData> mirror(blocks);
        for (unsigned b = 0; b < blocks; ++b) {
            for (auto &v : mirror[b])
                v = static_cast<std::uint8_t>(rng.nextBelow(256));
            access(b, oram::OramOp::Write, &mirror[b]);
        }
        bool data_ok = true;
        for (unsigned b = 0; b < blocks; ++b) {
            const BlockData got =
                access(b, oram::OramOp::Read, nullptr);
            if (got != mirror[b])
                data_ok = false;
        }

        if (inj.detectedTotal() != inj.injectedTotal()) {
            std::ostringstream os;
            os << "fault: detected " << inj.detectedTotal()
               << " != injected " << inj.injectedTotal() << " (proto "
               << which << ", iter " << i << ")";
            fail(r, os.str());
        }
        if (inj.unrecoveredTotal() == 0) {
            if (inj.recoveredTotal() != inj.detectedTotal()) {
                std::ostringstream os;
                os << "fault: recovered " << inj.recoveredTotal()
                   << " != detected " << inj.detectedTotal()
                   << " with no exhausted budget (iter " << i << ")";
                fail(r, os.str());
            }
            if (!integrity_ok()) {
                std::ostringstream os;
                os << "fault: clean recovery but integrityOk() false "
                      "(proto "
                   << which << ", iter " << i << ")";
                fail(r, os.str());
            }
            if (!data_ok) {
                std::ostringstream os;
                os << "fault: recovered campaign returned wrong data "
                      "(proto "
                   << which << ", iter " << i << ")";
                fail(r, os.str());
            }
        } else if (integrity_ok()) {
            std::ostringstream os;
            os << "fault: exhausted retry budget but integrityOk() "
                  "still true (proto "
               << which << ", iter " << i << ")";
            fail(r, os.str());
        }
    }
    return r;
}

FuzzResult
fuzzPermanentFaults(std::uint64_t seed, std::uint64_t iters)
{
    FuzzResult r;
    Rng rng(seed ^ 0xdeadd1);

    for (std::uint64_t i = 0; i < iters; ++i) {
        ++r.iterations;

        oram::OramParams tree;
        tree.levels = 3 + static_cast<unsigned>(rng.nextBelow(2));
        tree.stashCapacity = 150;
        const std::uint64_t proto_seed = rng.next();

        std::unique_ptr<sdimm::IndependentOram> indep;
        std::unique_ptr<sdimm::IndepSplitOram> combo;
        std::uint64_t capacity = 0;
        unsigned units = 0;
        const unsigned which = i % 3;
        if (which == 2) {
            sdimm::IndepSplitOram::Params p;
            p.perGroupTree = tree;
            p.groups = 2;
            p.slicesPerGroup = 2;
            units = p.groups;
            combo =
                std::make_unique<sdimm::IndepSplitOram>(p, proto_seed);
            capacity = combo->capacityBlocks();
        } else {
            sdimm::IndependentOram::Params p;
            p.perSdimm = tree;
            p.numSdimms = which == 0 ? 2 : 4;
            p.transferCapacity = 16;
            units = p.numSdimms;
            indep = std::make_unique<sdimm::IndependentOram>(
                p, proto_seed);
            capacity = indep->capacityBlocks();
        }
        const unsigned blocks = static_cast<unsigned>(
            std::min<std::uint64_t>(capacity, 12));

        // One permanent fault at a seeded unit: stuck-at from boot or
        // a hard death at a seeded index inside the workload (the
        // workload runs 2*blocks accesses, so atAccess < blocks always
        // activates).  Optionally, light transient noise on top, with
        // a retry budget deep enough that exhaustion stays rare.
        fault::FaultPlan plan;
        plan.seed = rng.next();
        plan.maxRetries = 6;
        fault::PermanentFault pf;
        pf.kind = rng.nextBelow(2) == 0
                      ? fault::PermanentFaultKind::StuckAt
                      : fault::PermanentFaultKind::HardDeath;
        pf.unit = static_cast<unsigned>(rng.nextBelow(units));
        pf.atAccess = rng.nextBelow(blocks);
        plan.permanentFaults.push_back(pf);
        if (rng.nextBelow(2) == 0) {
            plan.dramBitFlipRate = rng.nextBelow(10) / 1000.0;
            plan.linkCorruptRate = rng.nextBelow(10) / 1000.0;
        }
        fault::FaultInjector inj(plan);
        if (indep) {
            indep->setFaultInjector(&inj,
                                    fault::DegradationPolicy::Degraded);
        } else {
            combo->setFaultInjector(&inj,
                                    fault::DegradationPolicy::Degraded);
        }

        const auto access = [&](Addr a, oram::OramOp op,
                                const BlockData *d) {
            return indep ? indep->access(a, op, d)
                         : combo->access(a, op, d);
        };
        std::vector<BlockData> mirror(blocks);
        for (unsigned b = 0; b < blocks; ++b) {
            for (auto &v : mirror[b])
                v = static_cast<std::uint8_t>(rng.nextBelow(256));
            access(b, oram::OramOp::Write, &mirror[b]);
        }
        bool data_ok = true;
        for (unsigned b = 0; b < blocks; ++b) {
            const BlockData got =
                access(b, oram::OramOp::Read, nullptr);
            if (got != mirror[b])
                data_ok = false;
        }

        const auto oops = [&](const std::string &what) {
            std::ostringstream os;
            os << "permanent: " << what << " (proto " << which
               << ", kind " << fault::permanentKindName(pf.kind)
               << ", unit " << pf.unit << ", iter " << i << ")";
            fail(r, os.str());
        };
        if (inj.detectedTotal() != inj.injectedTotal())
            oops("detected != injected");
        if (inj.recoveredTotal() + inj.unrecoveredTotal() !=
            inj.detectedTotal()) {
            oops("recovered + unrecovered != detected");
        }
        if (inj.unrecoveredTotal() == 0) {
            // Nothing exhausted: the death must have been absorbed.
            if (inj.quarantinedUnits() < 1)
                oops("dead unit never quarantined");
            const bool ok =
                indep ? indep->integrityOk() : combo->integrityOk();
            if (!ok)
                oops("clean campaign but integrityOk() false");
            if (!data_ok)
                oops("clean campaign returned wrong data");
        }
    }
    return r;
}

} // namespace secdimm::verify

/**
 * @file
 * Walks through the paper's threat model from the adversary's side:
 * what a logic analyzer on the memory channel actually observes under
 * the Independent SDIMM protocol, and what happens when the adversary
 * turns active (tampering with stored ciphertext, replaying link
 * messages).
 *
 *   $ ./examples/adversary_view
 */

#include <cstdio>
#include <map>
#include <vector>

#include "sdimm/independent_oram.hh"
#include "sdimm/link_session.hh"

using namespace secdimm;
using namespace secdimm::sdimm;

namespace
{

IndependentOram
makeOram(std::uint64_t seed)
{
    IndependentOram::Params p;
    p.perSdimm.levels = 7;
    p.numSdimms = 2;
    return IndependentOram(p, seed);
}

/** Histogram the command stream a bus analyzer on @p oram captures. */
void
watchCommands(IndependentOram &oram, std::map<std::string, unsigned> &hist)
{
    oram.attachObserver([&hist](TraceEventKind kind, std::uint64_t a) {
        if (kind != TraceEventKind::ShortCmd)
            return;
        char key[64];
        std::snprintf(key, sizeof(key), "%-13s -> SDIMM %u",
                      commandName(static_cast<SdimmCommandType>(a >> 8)),
                      static_cast<unsigned>(a & 0xff));
        ++hist[key];
    });
}

} // namespace

int
main()
{
    std::printf("=== passive adversary: the command stream ===\n\n");

    // Pattern A: hammer one block.  Pattern B: sweep many blocks.
    auto run = [](bool hammer) {
        IndependentOram oram = makeOram(11);
        const BlockData v{};
        oram.access(0, oram::OramOp::Write, &v);
        std::map<std::string, unsigned> hist;
        watchCommands(oram, hist);
        for (int i = 0; i < 200; ++i) {
            const Addr a = hammer ? 0 : static_cast<Addr>(i % 64);
            oram.access(a, oram::OramOp::Read);
        }
        return hist;
    };
    const auto hist_a = run(true);
    const auto hist_b = run(false);

    std::printf("%-28s %10s %10s\n", "observed command",
                "hammer-one", "sweep-many");
    for (const auto &kv : hist_a) {
        const auto it = hist_b.find(kv.first);
        std::printf("%-28s %10u %10u\n", kv.first.c_str(), kv.second,
                    it == hist_b.end() ? 0 : it->second);
    }
    std::printf("\nper access the bus always carries: 1 ACCESS to a "
                "uniformly random SDIMM,\nPROBE polls, 1 FETCH_RESULT, "
                "and 1 APPEND to EVERY SDIMM -- regardless of\nwhat "
                "the program touched.  Payloads are sealed and "
                "fixed-size.\n");

    std::printf("\n=== active adversary: tampering and replay ===\n\n");

    // Tamper with a stored bucket: the next path read catches it.
    {
        IndependentOram oram = makeOram(13);
        const BlockData v{};
        oram.access(3, oram::OramOp::Write, &v);
        auto &store = oram.buffer(0).oram().store();
        for (std::uint64_t seq = 0; seq < store.numBuckets(); ++seq)
            store.tamperData(seq, 5);
        for (int i = 0; i < 4; ++i)
            oram.access(3, oram::OramOp::Read);
        std::printf("flip one ciphertext bit per bucket  -> integrity "
                    "%s\n",
                    oram.integrityOk() ? "OK (MISSED!)" : "VIOLATION "
                                                          "detected");
    }

    // Replay a sealed link message: the session counter rejects it.
    {
        Rng rng(17);
        auto [cpu, dimm] = establishLink(rng);
        const std::vector<std::uint8_t> payload(89, 0x42);
        const SealedMessage msg = cpu.seal(0x02, payload);
        const bool first = dimm.unseal(msg).has_value();
        const bool replayed = dimm.unseal(msg).has_value();
        std::printf("replay a captured ACCESS message    -> first "
                    "delivery %s, replay %s\n",
                    first ? "accepted" : "rejected",
                    replayed ? "ACCEPTED (BROKEN!)" : "rejected");
    }

    // Bit-flip a sealed message in flight.
    {
        Rng rng(19);
        auto [cpu, dimm] = establishLink(rng);
        SealedMessage msg = cpu.seal(0x02,
                                     std::vector<std::uint8_t>(89, 1));
        msg.body[40] ^= 0x10;
        std::printf("flip one bit of an in-flight message -> %s\n",
                    dimm.unseal(msg).has_value()
                        ? "ACCEPTED (BROKEN!)"
                        : "rejected (MAC mismatch)");
    }

    return 0;
}

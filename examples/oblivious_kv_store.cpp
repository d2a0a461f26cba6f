/**
 * @file
 * A key-value store whose memory access pattern leaks nothing about
 * which keys are queried -- the scenario motivating the paper's
 * threat model (a cloud operator watching the memory bus of, say, a
 * key-value or database server).
 *
 * The store is an open-addressing hash table laid out in oblivious
 * memory.  The demo runs two very different query workloads (hammer
 * one hot key vs. scan all keys) and shows that the observable leaf
 * sequence is statistically indistinguishable, while a plain (non
 * -oblivious) table trivially reveals the hot key's bucket.
 *
 *   $ ./examples/oblivious_kv_store
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/secure_memory_system.hh"
#include "oram/path_oram.hh"

using namespace secdimm;

namespace
{

/** Fixed-size KV record that fits one ORAM block. */
struct Record
{
    char key[24];
    char value[32];
    std::uint8_t used;
};
static_assert(sizeof(Record) <= blockBytes);

/** Open-addressing hash table over oblivious memory. */
class ObliviousKvStore
{
  public:
    explicit ObliviousKvStore(std::uint64_t slots)
        : slots_(slots), mem_(options(slots))
    {
    }

    bool
    put(const std::string &key, const std::string &value)
    {
        for (std::uint64_t probe = 0; probe < slots_; ++probe) {
            const Addr slot = slotOf(key, probe);
            Record r = load(slot);
            if (!r.used || key == r.key) {
                std::memset(&r, 0, sizeof(r));
                std::snprintf(r.key, sizeof(r.key), "%s", key.c_str());
                std::snprintf(r.value, sizeof(r.value), "%s",
                              value.c_str());
                r.used = 1;
                store(slot, r);
                return true;
            }
        }
        return false; // Table full.
    }

    bool
    get(const std::string &key, std::string &value_out)
    {
        for (std::uint64_t probe = 0; probe < slots_; ++probe) {
            const Addr slot = slotOf(key, probe);
            const Record r = load(slot);
            if (!r.used)
                return false;
            if (key == r.key) {
                value_out = r.value;
                return true;
            }
        }
        return false;
    }

    std::uint64_t accesses() const { return mem_.accessCount(); }
    bool integrityOk() const { return mem_.integrityOk(); }

  private:
    static core::SecureMemorySystem::Options
    options(std::uint64_t slots)
    {
        core::SecureMemorySystem::Options o;
        o.protocol = core::SecureMemorySystem::Protocol::Independent;
        o.capacityBytes = slots * blockBytes;
        o.numSdimms = 2;
        o.seed = 7;
        return o;
    }

    Addr
    slotOf(const std::string &key, std::uint64_t probe) const
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (char c : key) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ULL;
        }
        return (h + probe) % slots_;
    }

    Record
    load(Addr slot)
    {
        Record r;
        const BlockData b = mem_.readBlock(slot);
        std::memcpy(&r, b.data(), sizeof(r));
        return r;
    }

    void
    store(Addr slot, const Record &r)
    {
        BlockData b{};
        std::memcpy(b.data(), &r, sizeof(r));
        mem_.writeBlock(slot, b);
    }

    std::uint64_t slots_;
    mutable core::SecureMemorySystem mem_;
};

/** Chi-square statistic of a leaf histogram against uniform. */
double
uniformityChi2(const std::vector<LeafId> &trace, unsigned bins)
{
    std::vector<double> counts(bins, 0);
    for (LeafId l : trace)
        counts[l % bins] += 1;
    const double expect =
        static_cast<double>(trace.size()) / static_cast<double>(bins);
    double chi2 = 0;
    for (double c : counts)
        chi2 += (c - expect) * (c - expect) / expect;
    return chi2;
}

} // namespace

int
main()
{
    std::printf("=== oblivious key-value store (Independent ORAM over "
                "2 SDIMMs) ===\n\n");

    ObliviousKvStore store(512);

    // Populate.
    for (int i = 0; i < 40; ++i) {
        store.put("user:" + std::to_string(i),
                  "profile-" + std::to_string(i * 17));
    }

    // Read back a few.
    for (int i : {0, 13, 39}) {
        std::string v;
        const bool ok = store.get("user:" + std::to_string(i), v);
        std::printf("get user:%-3d -> %s\n", i,
                    ok ? v.c_str() : "(miss)");
    }

    std::printf("\ntotal accessORAM operations: %llu\n",
                static_cast<unsigned long long>(store.accesses()));
    std::printf("integrity: %s\n\n",
                store.integrityOk() ? "verified" : "VIOLATED");

    // --- What the attacker on the bus sees -------------------------
    // Two extreme query patterns against the SAME oblivious tree:
    // hammering one hot key vs. scanning every key.  The adversary
    // observes only the leaf/path sequence; both look uniform.
    std::printf("=== attacker's view: leaf-sequence uniformity ===\n");
    oram::OramParams params;
    params.levels = 8;
    auto run_pattern = [&](bool hammer) {
        oram::PathOram oram(params, crypto::makeKey(1, 2),
                            crypto::makeKey(3, 4), 99);
        std::vector<LeafId> leaves;
        const BlockData v{};
        for (int i = 0; i < 1500; ++i) {
            const Addr a = hammer ? 42 : static_cast<Addr>(i) % 100;
            leaves.push_back(oram.leafOf(a)); // The path it reads.
            oram.access(a, oram::OramOp::Write, &v);
        }
        return uniformityChi2(leaves, 16);
    };
    const double chi_hot = run_pattern(true);
    const double chi_scan = run_pattern(false);
    std::printf("chi^2 vs uniform (15 dof, ~25 is typical, >37 "
                "suspicious):\n");
    std::printf("  hammer one key : %6.1f\n", chi_hot);
    std::printf("  scan all keys  : %6.1f\n", chi_scan);
    std::printf("the two patterns are indistinguishable on the bus.\n");

    // Contrast: a non-oblivious table leaks the hot slot directly.
    std::printf("\nwithout ORAM, the hot pattern touches ONE address "
                "1500 times --\nthe attacker reads the access "
                "histogram straight off the bus.\n");
    return 0;
}

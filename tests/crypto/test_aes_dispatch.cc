/**
 * @file
 * Cross-implementation equivalence suite for the runtime-dispatched
 * AES backends (docs/PERFORMANCE.md): every implementation available
 * on this machine must agree bit-exactly with the FIPS-197 table path
 * on raw blocks, batch encryption, CTR keystreams, CMAC tags (single,
 * prefixed, and batched), and PMMAC tags -- and the whole
 * SecureMemorySystem must export identical metrics regardless of
 * which backend is forced.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/secure_memory_system.hh"
#include "crypto/aes128.hh"
#include "crypto/cmac.hh"
#include "crypto/cpu_features.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/pmmac.hh"
#include "util/rng.hh"
#include "verify/channel_observer.hh"

namespace secdimm::crypto
{
namespace
{

/** RAII backend override so a failing test cannot leak the force. */
class ForcedImpl
{
  public:
    explicit ForcedImpl(AesImpl impl) { forceAesImpl(impl); }
    ~ForcedImpl() { clearForcedAesImpl(); }
};

/** Every implementation this machine can actually run. */
std::vector<AesImpl>
availableImpls()
{
    std::vector<AesImpl> impls{AesImpl::Table};
    if (aesNiSupported())
        impls.push_back(AesImpl::AesNi);
    if (armv8CryptoSupported())
        impls.push_back(AesImpl::Armv8);
    return impls;
}

Aes128Block
blockFromBytes(std::initializer_list<std::uint8_t> bytes)
{
    Aes128Block b{};
    std::size_t i = 0;
    for (auto v : bytes)
        b[i++] = v;
    return b;
}

Aes128Key
randomKey(Rng &rng)
{
    return makeKey(rng.next(), rng.next());
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

/** FIPS-197 Appendix C.1 vector must hold on EVERY backend. */
TEST(AesDispatch, Fips197KnownAnswerOnEveryBackend)
{
    const Aes128Key key = blockFromBytes(
        {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
         0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f});
    const Aes128Block pt = blockFromBytes(
        {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
         0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff});
    const Aes128Block expected = blockFromBytes(
        {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
         0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a});

    for (AesImpl impl : availableImpls()) {
        ForcedImpl force(impl);
        Aes128 aes(key);
        ASSERT_EQ(aes.impl(), impl);
        EXPECT_EQ(aes.encrypt(pt), expected) << aesImplName(impl);
        EXPECT_EQ(aes.decrypt(expected), pt) << aesImplName(impl);
    }
}

/** Random blocks: every backend matches the table ciphertext. */
TEST(AesDispatch, RandomizedDifferentialEncryptDecrypt)
{
    Rng rng(0xd15c0);
    for (int trial = 0; trial < 50; ++trial) {
        const Aes128Key key = randomKey(rng);
        Aes128Block pt;
        for (auto &b : pt)
            b = static_cast<std::uint8_t>(rng.next());

        ForcedImpl table(AesImpl::Table);
        Aes128 ref(key);
        const Aes128Block ct = ref.encrypt(pt);
        clearForcedAesImpl();

        for (AesImpl impl : availableImpls()) {
            ForcedImpl force(impl);
            Aes128 aes(key);
            EXPECT_EQ(aes.encrypt(pt), ct) << aesImplName(impl);
            EXPECT_EQ(aes.decrypt(ct), pt) << aesImplName(impl);
        }
    }
}

/** encryptBlocks(n) must equal n independent encrypt() calls for
 *  every batch size around the 8-wide interleave boundary, around
 *  16, 32 and 64 (a CTR call's 64-block keystream), and a whole
 *  320-block path -- out of place and in place, as CTR and CMAC call
 *  it, so a kernel that writes a block of the batch before reading it
 *  fails. */
TEST(AesDispatch, BatchMatchesSingleBlocks)
{
    Rng rng(0xba7c4);
    const Aes128Key key = randomKey(rng);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 17; ++n)
        sizes.push_back(n);
    for (std::size_t n : {31, 32, 33, 48, 64, 65, 320})
        sizes.push_back(n);
    for (AesImpl impl : availableImpls()) {
        ForcedImpl force(impl);
        Aes128 aes(key);
        for (const std::size_t n : sizes) {
            const std::vector<std::uint8_t> in = randomBytes(rng, 16 * n);
            std::vector<std::uint8_t> out(16 * n);
            aes.encryptBlocks(in.data(), out.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                Aes128Block one;
                std::copy(in.begin() + 16 * i, in.begin() + 16 * (i + 1),
                          one.begin());
                const Aes128Block expect = aes.encrypt(one);
                EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                       out.begin() + 16 * i))
                    << aesImplName(impl) << " n=" << n << " i=" << i;
            }
            std::vector<std::uint8_t> buf = in;
            aes.encryptBlocks(buf.data(), buf.data(), n);
            EXPECT_EQ(buf, out) << aesImplName(impl) << " in place n=" << n;
        }
    }
}

/** Advancing chains by zero blocks leaves every state as it was. */
TEST(AesDispatch, CbcChainsZeroBlocksLeavesStates)
{
    Rng rng(0xcbc0);
    const Aes128Key key = randomKey(rng);
    const std::vector<std::uint8_t> msg = randomBytes(rng, 16);
    for (AesImpl impl : availableImpls()) {
        ForcedImpl force(impl);
        Aes128 aes(key);
        for (const std::size_t n : {1UL, 7UL, 8UL, 9UL, 17UL}) {
            const std::vector<std::uint8_t> before = randomBytes(rng, 16 * n);
            std::vector<std::uint8_t> state = before;
            const std::vector<const std::uint8_t *> msgs(n, msg.data());
            aes.cbcChains(state.data(), msgs.data(), n, 0);
            EXPECT_EQ(state, before) << aesImplName(impl) << " n=" << n;
        }
        EXPECT_EQ(aes.blockOps(), 0U) << aesImplName(impl);
    }
}

/** CTR keystreams are backend-independent at every length. */
TEST(AesDispatch, CtrKeystreamMatchesAcrossBackends)
{
    Rng rng(0xc7c7);
    const Aes128Key key = randomKey(rng);
    for (const std::size_t len :
         {0UL, 1UL, 15UL, 16UL, 17UL, 64UL, 127UL, 128UL, 320UL, 1000UL,
          1023UL, 1024UL, 1025UL, 5120UL}) {
        const std::vector<std::uint8_t> plain = randomBytes(rng, len);
        const std::uint64_t nonce = rng.next();
        const std::uint64_t counter = rng.next();

        ForcedImpl table(AesImpl::Table);
        CtrCipher ref(key);
        std::vector<std::uint8_t> expect = plain;
        ref.transformBuffer(expect.data(), expect.size(), nonce, counter);
        clearForcedAesImpl();

        for (AesImpl impl : availableImpls()) {
            ForcedImpl force(impl);
            CtrCipher c(key);
            std::vector<std::uint8_t> got = plain;
            c.transformBuffer(got.data(), got.size(), nonce, counter);
            EXPECT_EQ(got, expect)
                << aesImplName(impl) << " len=" << len;
            // Round-trip: CTR is an involution.
            c.transformBuffer(got.data(), got.size(), nonce, counter);
            EXPECT_EQ(got, plain)
                << aesImplName(impl) << " len=" << len;
        }
    }
}

/** CMAC: single, prefixed, and batched APIs agree across backends. */
TEST(AesDispatch, CmacAgreesAcrossBackendsAndApis)
{
    Rng rng(0xcac0);
    const Aes128Key key = randomKey(rng);
    const std::vector<std::size_t> lens{0,  1,  15, 16,  17,
                                        32, 33, 64, 320, 321};
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::size_t len : lens)
        msgs.push_back(randomBytes(rng, len));
    const std::vector<std::uint8_t> prefix = randomBytes(rng, 16);

    // 33 distinct equal-length messages, each under its own prefix,
    // so a chain that reads another chain's blocks cannot pass.
    std::vector<std::vector<std::uint8_t>> eqMsgs, eqPrefixes;
    for (int i = 0; i < 33; ++i) {
        eqMsgs.push_back(randomBytes(rng, 320));
        eqPrefixes.push_back(randomBytes(rng, 16));
    }

    // Reference tags from the table path, batch of one per message.
    std::vector<Aes128Block> refPlain, refPrefixed, refEq;
    {
        ForcedImpl table(AesImpl::Table);
        Cmac ref(key);
        for (std::size_t i = 0; i < eqMsgs.size(); ++i) {
            refEq.push_back(ref.computeWithPrefix(
                eqPrefixes[i].data(), eqMsgs[i].data(), eqMsgs[i].size()));
        }
        for (const auto &m : msgs) {
            refPlain.push_back(ref.compute(m.data(), m.size()));
            std::vector<std::uint8_t> cat = prefix;
            cat.insert(cat.end(), m.begin(), m.end());
            refPrefixed.push_back(ref.compute(cat.data(), cat.size()));
        }
    }

    for (AesImpl impl : availableImpls()) {
        ForcedImpl force(impl);
        Cmac mac(key);
        std::vector<CmacJob> plainJobs, prefixedJobs;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            EXPECT_TRUE(Cmac::tagsEqual(
                mac.compute(msgs[i].data(), msgs[i].size()),
                refPlain[i]))
                << aesImplName(impl) << " len=" << lens[i];
            EXPECT_TRUE(Cmac::tagsEqual(
                mac.computeWithPrefix(prefix.data(), msgs[i].data(),
                                      msgs[i].size()),
                refPrefixed[i]))
                << aesImplName(impl) << " len=" << lens[i];
            plainJobs.push_back(
                CmacJob{nullptr, msgs[i].data(), msgs[i].size()});
            prefixedJobs.push_back(
                CmacJob{prefix.data(), msgs[i].data(), msgs[i].size()});
        }
        std::vector<Aes128Block> got(msgs.size());
        mac.computeBatch(plainJobs.data(), plainJobs.size(), got.data());
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            EXPECT_TRUE(Cmac::tagsEqual(got[i], refPlain[i]))
                << aesImplName(impl) << " batch len=" << lens[i];
        }
        mac.computeBatch(prefixedJobs.data(), prefixedJobs.size(),
                         got.data());
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            EXPECT_TRUE(Cmac::tagsEqual(got[i], refPrefixed[i]))
                << aesImplName(impl) << " batch+prefix len=" << lens[i];
        }

        // Batches of 1 to 17 and 33 equal-length prefixed jobs: every
        // remainder of the 8-chain groups, with and without full groups.
        std::vector<std::size_t> counts;
        for (std::size_t n = 1; n <= 17; ++n)
            counts.push_back(n);
        counts.push_back(33);
        for (const std::size_t n : counts) {
            std::vector<CmacJob> same;
            for (std::size_t i = 0; i < n; ++i) {
                same.push_back(CmacJob{eqPrefixes[i].data(),
                                       eqMsgs[i].data(),
                                       eqMsgs[i].size()});
            }
            std::vector<Aes128Block> tags(n);
            mac.computeBatch(same.data(), n, tags.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_TRUE(Cmac::tagsEqual(tags[i], refEq[i]))
                    << aesImplName(impl) << " n=" << n << " i=" << i;
            }
        }

        // One batch mixing every length, with and without prefixes,
        // interleaved so the groups are not contiguous in the input.
        std::vector<CmacJob> mixed;
        std::vector<Aes128Block> expect;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            mixed.push_back(prefixedJobs[i]);
            expect.push_back(refPrefixed[i]);
            mixed.push_back(plainJobs[msgs.size() - 1 - i]);
            expect.push_back(refPlain[msgs.size() - 1 - i]);
        }
        std::vector<Aes128Block> tags(mixed.size());
        mac.computeBatch(mixed.data(), mixed.size(), tags.data());
        for (std::size_t i = 0; i < mixed.size(); ++i) {
            EXPECT_TRUE(Cmac::tagsEqual(tags[i], expect[i]))
                << aesImplName(impl) << " mixed i=" << i;
        }
    }
}

/** PMMAC tags (single and batched) are backend-independent, for
 *  batches of 12, 16, 17 and 33: whole 8-chain groups with and
 *  without a remainder. */
TEST(AesDispatch, PmmacAgreesAcrossBackends)
{
    Rng rng(0x9a9a);
    const Aes128Key key = randomKey(rng);
    for (const std::size_t count : {12UL, 16UL, 17UL, 33UL}) {
        std::vector<std::vector<std::uint8_t>> payloads;
        std::vector<PmmacItem> items;
        for (std::size_t i = 0; i < count; ++i)
            payloads.push_back(randomBytes(rng, 320));
        for (std::size_t i = 0; i < count; ++i) {
            items.push_back(PmmacItem{rng.next(), rng.next(),
                                      payloads[i].data(),
                                      payloads[i].size()});
        }

        std::vector<Tag64> ref(items.size());
        {
            ForcedImpl table(AesImpl::Table);
            Pmmac mac(key);
            for (std::size_t i = 0; i < items.size(); ++i) {
                ref[i] = mac.tag(items[i].id, items[i].counter,
                                 items[i].data, items[i].len);
            }
        }

        for (AesImpl impl : availableImpls()) {
            ForcedImpl force(impl);
            Pmmac mac(key);
            std::vector<Tag64> got(items.size());
            mac.tagBatch(items.data(), items.size(), got.data());
            const std::unique_ptr<bool[]> ok(new bool[items.size()]);
            EXPECT_TRUE(mac.verifyBatch(items.data(), items.size(),
                                        ref.data(), ok.get()))
                << aesImplName(impl) << " count=" << count;
            for (std::size_t i = 0; i < items.size(); ++i) {
                EXPECT_EQ(got[i], ref[i])
                    << aesImplName(impl) << " " << count << "/" << i;
                EXPECT_TRUE(mac.verify(items[i].id, items[i].counter,
                                       items[i].data, items[i].len,
                                       ref[i]))
                    << aesImplName(impl) << " " << count << "/" << i;
            }
            // A wrong tag must fail exactly the corrupted item.
            std::vector<Tag64> bad = ref;
            bad[3] ^= 1;
            EXPECT_FALSE(mac.verifyBatch(items.data(), items.size(),
                                         bad.data(), ok.get()));
            for (std::size_t i = 0; i < items.size(); ++i) {
                EXPECT_EQ(ok[i], i != 3)
                    << aesImplName(impl) << " " << count << "/" << i;
            }
        }
    }
}

/** The accelerated path must be active when hardware supports it --
 *  this is the guard behind the >=5x benchmark acceptance claim. */
TEST(AesDispatch, HardwarePathSelectedWhenAvailable)
{
    if (!aesNiSupported() && !armv8CryptoSupported())
        GTEST_SKIP() << "no accelerated AES implementation on this host";
    clearForcedAesImpl();
    Aes128 aes(makeKey(1, 2));
    // Env override may legitimately pin the table path; only assert
    // hardware selection when no override is in play.
    if (const char *env = std::getenv("SDIMM_AES_IMPL");
        env == nullptr || std::string(env) == "auto") {
        EXPECT_NE(aes.impl(), AesImpl::Table);
    }
}

/**
 * End-to-end implementation-independence: a full SecureMemorySystem
 * run must produce identical access results and identical metrics
 * (minus the impl id gauge) no matter which backend is forced --
 * obliviousness and functional behavior cannot depend on dispatch.
 */
TEST(AesDispatch, SystemBehaviorIdenticalAcrossBackends)
{
    const auto impls = availableImpls();
    if (impls.size() < 2)
        GTEST_SKIP() << "only one AES implementation on this host";

    auto runOnce = [](AesImpl impl) {
        ForcedImpl force(impl);
        core::SecureMemorySystem::Options opt;
        opt.protocol = core::SecureMemorySystem::Protocol::PathOram;
        opt.capacityBytes = 256 * blockBytes;
        opt.seed = 42;
        core::SecureMemorySystem sys(opt);
        const std::uint64_t blocks = sys.capacityBytes() / blockBytes;
        Rng rng(7);
        std::string log;
        for (int i = 0; i < 200; ++i) {
            const Addr a = rng.nextBelow(blocks);
            if (rng.nextBool(0.5)) {
                BlockData d{};
                d[0] = static_cast<std::uint8_t>(i);
                sys.writeBlock(a, d);
            } else {
                const BlockData d = sys.readBlock(a);
                log.append(reinterpret_cast<const char *>(d.data()),
                           d.size());
            }
        }
        util::MetricsRegistry m = sys.metrics();
        // The impl id gauge is the one legitimate difference.
        m.setGauge("crypto.impl_id", 0.0);
        return log + "\n" + m.toJson();
    };

    const std::string ref = runOnce(impls[0]);
    for (std::size_t i = 1; i < impls.size(); ++i)
        EXPECT_EQ(runOnce(impls[i]), ref) << aesImplName(impls[i]);
}

/**
 * What the obliviousness gate sees must not depend on which AES
 * backend ran: the externally visible event stream is a function
 * of the access pattern alone, so forcing different backends over the
 * same seeded workload must yield the exact same trace.
 */
TEST(AesDispatch, TraceCheckerVerdictImplIndependent)
{
    const auto impls = availableImpls();
    if (impls.size() < 2)
        GTEST_SKIP() << "only one AES implementation on this host";

    auto observeRun = [](AesImpl impl) {
        ForcedImpl force(impl);
        core::SecureMemorySystem::Options opt;
        opt.protocol = core::SecureMemorySystem::Protocol::PathOram;
        opt.capacityBytes = 256 * blockBytes;
        opt.seed = 9;
        core::SecureMemorySystem sys(opt);
        auto obs = std::make_unique<verify::ChannelObserver>();
        sys.attachObserver(*obs);
        const std::uint64_t blocks = sys.capacityBytes() / blockBytes;
        Rng rng(11);
        for (int i = 0; i < 100; ++i) {
            const Addr a = rng.nextBelow(blocks);
            if (rng.nextBool(0.5)) {
                BlockData d{};
                d[0] = static_cast<std::uint8_t>(i);
                sys.writeBlock(a, d);
            } else {
                sys.readBlock(a);
            }
        }
        return obs->events();
    };

    const auto ref = observeRun(impls[0]);
    ASSERT_FALSE(ref.empty());
    for (std::size_t i = 1; i < impls.size(); ++i) {
        const auto other = observeRun(impls[i]);
        ASSERT_EQ(other.size(), ref.size()) << aesImplName(impls[i]);
        for (std::size_t e = 0; e < ref.size(); ++e) {
            ASSERT_EQ(other[e].kind, ref[e].kind)
                << aesImplName(impls[i]) << " event " << e;
            ASSERT_EQ(other[e].addr, ref[e].addr)
                << aesImplName(impls[i]) << " event " << e;
        }
    }
}

/* ------------------------------------------------------------------ */
/* SDIMM_AES_IMPL grammar                                              */
/* ------------------------------------------------------------------ */

/** Every string the knob accepts, with its expected meaning. */
TEST(AesImplSetting, AcceptedStringsParseExactly)
{
    struct Case
    {
        const char *value;
        bool isAuto;
        AesImpl impl;
    };
    const Case cases[] = {
        {nullptr, true, AesImpl::Table},
        {"", true, AesImpl::Table},
        {"auto", true, AesImpl::Table},
        {"table", false, AesImpl::Table},
        {"aesni", false, AesImpl::AesNi},
        {"armv8", false, AesImpl::Armv8},
    };
    for (const Case &c : cases) {
        const auto parsed = parseAesImplSetting(c.value);
        ASSERT_TRUE(parsed.has_value())
            << "rejected \"" << (c.value ? c.value : "<unset>") << "\"";
        EXPECT_EQ(parsed->isAuto, c.isAuto)
            << (c.value ? c.value : "<unset>");
        if (!c.isAuto) {
            EXPECT_EQ(parsed->impl, c.impl) << c.value;
        }
    }
}

/** Everything else -- typos, case variants, whitespace, synonyms --
 *  must be rejected, never silently coerced to a backend. */
TEST(AesImplSetting, RejectedStringsReturnNullopt)
{
    const char *bad[] = {
        "Table",  "TABLE",  "AesNi",  "AESNI",  "aes-ni", "aes_ni",
        "ARMv8",  "armv-8", "neon",   "tables", "autoo",  "aut",
        " table", "table ", "table\n", "auto ",  " ",      "0",
        "1",      "none",   "best",   "hw",     "soft",   "default",
    };
    for (const char *value : bad) {
        EXPECT_FALSE(parseAesImplSetting(value).has_value())
            << "accepted \"" << value << "\"";
    }
}

/** An invalid env value is a fatal config error at first resolution --
 *  a typo must not silently run on a different AES path. */
TEST(AesImplSetting, UnknownEnvValueDiesLoudly)
{
    // threadsafe style re-executes the binary, so the child resolves
    // the env knob from scratch instead of reusing this process's
    // cached resolution.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("SDIMM_AES_IMPL", "quantum", 1);
            clearForcedAesImpl();
            activeAesImpl();
        },
        ::testing::ExitedWithCode(1), "invalid SDIMM_AES_IMPL");
}

} // namespace
} // namespace secdimm::crypto

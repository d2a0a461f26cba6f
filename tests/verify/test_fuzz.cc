/**
 * @file
 * Fixed-seed fuzz campaigns over the attacker-reachable parsers, plus
 * the hand-written regressions the fuzzer's findings were distilled
 * into (truncation, bad magic, opcode mismatch, wrong-size bodies).
 */

#include <gtest/gtest.h>

#include "sdimm/sdimm_command.hh"
#include "sdimm/secure_buffer.hh"
#include "verify/fuzz.hh"

namespace secdimm::verify
{
namespace
{

using sdimm::BusDecodeStatus;
using sdimm::CommandFrame;
using sdimm::FrameError;
using sdimm::FrameParseResult;
using sdimm::SdimmCommandType;

TEST(Fuzz, CommandCodecCampaignClean)
{
    const FuzzResult r = fuzzCommandCodec(1, 20000);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
    EXPECT_EQ(r.iterations, 20000u);
}

TEST(Fuzz, CommandFramesCampaignClean)
{
    const FuzzResult r = fuzzCommandFrames(1, 20000);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
}

TEST(Fuzz, LinkSessionCampaignClean)
{
    const FuzzResult r = fuzzLinkSession(1, 5000);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
}

TEST(Fuzz, MessageCodecsCampaignClean)
{
    const FuzzResult r = fuzzMessageCodecs(1, 20000);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
}

TEST(Fuzz, JsonReaderCampaignClean)
{
    const FuzzResult r = fuzzJson(1, 20000);
    EXPECT_EQ(r.iterations, 20000u);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
}

TEST(Fuzz, CampaignsAreDeterministic)
{
    const FuzzResult a = fuzzCommandFrames(9, 2000);
    const FuzzResult b = fuzzCommandFrames(9, 2000);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.firstFailure, b.firstFailure);
}

TEST(Fuzz, PermanentFaultCampaignClean)
{
    // ~100 whole campaigns, rotating INDEP-2 / INDEP-4 / INDEP-SPLIT
    // with one stuck-at or hard-death unit each; the nightly workflow
    // runs the long version of this.
    const FuzzResult r = fuzzPermanentFaults(1, 100);
    EXPECT_TRUE(r.ok()) << r.firstFailure;
    EXPECT_EQ(r.iterations, 100u);
}

TEST(Fuzz, PermanentFaultCampaignIsDeterministic)
{
    const FuzzResult a = fuzzPermanentFaults(5, 30);
    const FuzzResult b = fuzzPermanentFaults(5, 30);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.firstFailure, b.firstFailure);
}

// ---------------------------------------------------------------------
// Frame-codec regressions (each one a malformation class the strict
// parser must name rather than crash on or misparse).
// ---------------------------------------------------------------------

TEST(FrameRegression, ShortFrameRoundTrips)
{
    CommandFrame f;
    f.type = SdimmCommandType::Probe;
    const auto wire = sdimm::serializeFrame(f);
    const FrameParseResult r = sdimm::parseFrame(wire.data(), wire.size());
    ASSERT_TRUE(r.frame.has_value()) << frameErrorName(r.error);
    EXPECT_EQ(r.frame->type, SdimmCommandType::Probe);
    EXPECT_TRUE(r.frame->payload.empty());
}

TEST(FrameRegression, LongFrameRoundTrips)
{
    CommandFrame f;
    f.type = SdimmCommandType::Access;
    f.payload = {sdimm::encodeCommand(f.type).opcode, 1, 2, 3};
    const auto wire = sdimm::serializeFrame(f);
    const FrameParseResult r = sdimm::parseFrame(wire.data(), wire.size());
    ASSERT_TRUE(r.frame.has_value()) << frameErrorName(r.error);
    EXPECT_EQ(r.frame->payload, f.payload);
}

TEST(FrameRegression, TruncatedHeaderRejected)
{
    const std::uint8_t buf[] = {sdimm::frameMagic, 0, 0};
    EXPECT_EQ(sdimm::parseFrame(buf, sizeof(buf)).error,
              FrameError::Truncated);
    EXPECT_EQ(sdimm::parseFrame(buf, 0).error, FrameError::Truncated);
}

TEST(FrameRegression, TruncatedBodyRejected)
{
    CommandFrame f;
    f.type = SdimmCommandType::Append;
    f.payload = {sdimm::encodeCommand(f.type).opcode, 9, 9, 9};
    const auto wire = sdimm::serializeFrame(f);
    for (std::size_t keep = sdimm::frameHeaderBytes;
         keep < wire.size(); ++keep) {
        EXPECT_EQ(sdimm::parseFrame(wire.data(), keep).error,
                  FrameError::Truncated)
            << "prefix length " << keep;
    }
}

TEST(FrameRegression, BadMagicRejected)
{
    CommandFrame f;
    f.type = SdimmCommandType::Probe;
    auto wire = sdimm::serializeFrame(f);
    wire[0] ^= 0xff;
    EXPECT_EQ(sdimm::parseFrame(wire.data(), wire.size()).error,
              FrameError::BadMagic);
}

TEST(FrameRegression, UnknownTypeRejected)
{
    const std::uint8_t buf[] = {sdimm::frameMagic, 9, 0, 0};
    EXPECT_EQ(sdimm::parseFrame(buf, sizeof(buf)).error,
              FrameError::UnknownType);
}

TEST(FrameRegression, TrailingBytesRejected)
{
    CommandFrame f;
    f.type = SdimmCommandType::Probe;
    auto wire = sdimm::serializeFrame(f);
    wire.push_back(0xab);
    EXPECT_EQ(sdimm::parseFrame(wire.data(), wire.size()).error,
              FrameError::LengthMismatch);
}

TEST(FrameRegression, ShortCommandWithPayloadRejected)
{
    // SendPkey is short: a declared payload is a protocol violation.
    const std::uint8_t buf[] = {sdimm::frameMagic, 0, 1, 0, 0x55};
    EXPECT_EQ(sdimm::parseFrame(buf, sizeof(buf)).error,
              FrameError::UnexpectedPayload);
}

TEST(FrameRegression, LongCommandWithoutPayloadRejected)
{
    // ReceiveSecret (type 1) is long: it must carry its opcode byte.
    const std::uint8_t buf[] = {sdimm::frameMagic, 1, 0, 0};
    EXPECT_EQ(sdimm::parseFrame(buf, sizeof(buf)).error,
              FrameError::MissingPayload);
}

TEST(FrameRegression, OpcodeMismatchRejected)
{
    CommandFrame f;
    f.type = SdimmCommandType::Access;
    f.payload = {sdimm::encodeCommand(f.type).opcode, 7};
    auto wire = sdimm::serializeFrame(f);
    wire[sdimm::frameHeaderBytes] ^= 0xff;
    EXPECT_EQ(sdimm::parseFrame(wire.data(), wire.size()).error,
              FrameError::OpcodeMismatch);
}

TEST(FrameRegression, LengthFieldSkewNamedPrecisely)
{
    // Distilled from the mode-5 structure-aware mutation: each length
    // skew direction maps to its own definite error.
    CommandFrame f;
    f.type = SdimmCommandType::Access;
    f.payload = {sdimm::encodeCommand(f.type).opcode, 1, 2};
    const auto wire = sdimm::serializeFrame(f);
    const auto skew = [&](int delta) {
        auto w = wire;
        const std::uint16_t declared = static_cast<std::uint16_t>(
            w[2] | (static_cast<unsigned>(w[3]) << 8));
        const std::uint16_t s =
            static_cast<std::uint16_t>(declared + delta);
        w[2] = static_cast<std::uint8_t>(s & 0xff);
        w[3] = static_cast<std::uint8_t>(s >> 8);
        return sdimm::parseFrame(w.data(), w.size()).error;
    };
    EXPECT_EQ(skew(1), FrameError::Truncated);
    EXPECT_EQ(skew(8), FrameError::Truncated);
    EXPECT_EQ(skew(-1), FrameError::LengthMismatch);
    // 3 - 8 wraps to 65531, past maxFramePayload.
    EXPECT_EQ(skew(-8), FrameError::Oversize);
}

TEST(FrameRegression, SplicedFramesRejected)
{
    // Mode-4 shape: the header of a long ACCESS glued onto a short
    // PROBE's (empty) body claims a payload the wire doesn't carry.
    CommandFrame a;
    a.type = SdimmCommandType::Access;
    a.payload = {sdimm::encodeCommand(a.type).opcode, 1, 2, 3};
    CommandFrame b;
    b.type = SdimmCommandType::Probe;
    const auto wa = sdimm::serializeFrame(a);
    const auto wb = sdimm::serializeFrame(b);
    std::vector<std::uint8_t> spliced(
        wa.begin(), wa.begin() + sdimm::frameHeaderBytes);
    spliced.insert(spliced.end(), wb.begin() + sdimm::frameHeaderBytes,
                   wb.end());
    EXPECT_EQ(sdimm::parseFrame(spliced.data(), spliced.size()).error,
              FrameError::Truncated);
}

TEST(FrameRegression, OversizeDeclarationRejected)
{
    // Declared payload of 5000 > maxFramePayload (checked before the
    // body-truncation test, so a 4-byte probe suffices).
    const std::uint8_t buf[] = {sdimm::frameMagic, 2, 0x88, 0x13};
    EXPECT_EQ(sdimm::parseFrame(buf, sizeof(buf)).error,
              FrameError::Oversize);
}

// ---------------------------------------------------------------------
// Strict bus decode and wrong-size message bodies (fuzz-derived
// hardening of the former SD_ASSERT paths).
// ---------------------------------------------------------------------

TEST(DecodeRegression, EveryCommandRoundTripsStrictly)
{
    for (SdimmCommandType t : sdimm::allCommands()) {
        const sdimm::DdrEncoding e = sdimm::encodeCommand(t);
        const sdimm::BusDecodeResult r = sdimm::decodeBusCommand(
            e.write, e.rasRow, e.casCol, e.opcode);
        EXPECT_EQ(r.status, BusDecodeStatus::Command)
            << sdimm::commandName(t);
        ASSERT_TRUE(r.command.has_value());
        EXPECT_EQ(*r.command, t);
    }
}

TEST(DecodeRegression, NormalAccessOutsideReservedRegion)
{
    const sdimm::BusDecodeResult r =
        sdimm::decodeBusCommand(false, 0x100, 0x0, 0);
    EXPECT_EQ(r.status, BusDecodeStatus::NormalAccess);
    EXPECT_FALSE(r.command.has_value());
    // Lenient wrapper: still nullopt, indistinguishable from malformed.
    EXPECT_FALSE(sdimm::decodeCommand(false, 0x100, 0x0, 0).has_value());
}

TEST(DecodeRegression, ReservedRegionGarbageIsMalformed)
{
    // RAS 0 with a CAS matching no Table I row.
    const sdimm::BusDecodeResult r =
        sdimm::decodeBusCommand(false, 0x0, 0x20, 0);
    EXPECT_EQ(r.status, BusDecodeStatus::Malformed);
    EXPECT_FALSE(r.command.has_value());
    // Long encoding with an unknown opcode is equally malformed.
    EXPECT_EQ(sdimm::decodeBusCommand(true, 0x0, 0x00, 0xee).status,
              BusDecodeStatus::Malformed);
}

TEST(MessageRegression, WrongSizeBodiesYieldNullopt)
{
    using sdimm::accessBodyBytes;
    using sdimm::appendBodyBytes;
    using sdimm::responseBodyBytes;
    for (const std::size_t n :
         {std::size_t{0}, accessBodyBytes - 1, accessBodyBytes + 1}) {
        EXPECT_FALSE(
            sdimm::unpackAccess(std::vector<std::uint8_t>(n)).has_value())
            << n;
    }
    EXPECT_EQ(responseBodyBytes, blockBytes);
    for (const std::size_t n :
         {responseBodyBytes - 1, responseBodyBytes + 1}) {
        EXPECT_FALSE(
            sdimm::unpackResponse(std::vector<std::uint8_t>(n)).has_value())
            << n;
    }
    EXPECT_FALSE(sdimm::unpackAppend(
                     std::vector<std::uint8_t>(appendBodyBytes + 7))
                     .has_value());

    // Exact sizes parse.
    EXPECT_TRUE(sdimm::unpackAccess(
                    std::vector<std::uint8_t>(accessBodyBytes))
                    .has_value());
    EXPECT_TRUE(sdimm::unpackResponse(
                    std::vector<std::uint8_t>(responseBodyBytes))
                    .has_value());
    EXPECT_TRUE(sdimm::unpackAppend(
                    std::vector<std::uint8_t>(appendBodyBytes))
                    .has_value());
}

TEST(MessageRegression, PackUnpackRoundTrip)
{
    sdimm::AccessRequest req;
    req.addr = 0x1234;
    req.localLeaf = 7;
    req.newLocalLeaf = invalidLeaf;
    req.write = true;
    req.data[0] = 0xaa;
    req.data[63] = 0x55;
    const auto parsed = sdimm::unpackAccess(sdimm::packAccess(req));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->addr, req.addr);
    EXPECT_EQ(parsed->localLeaf, req.localLeaf);
    EXPECT_EQ(parsed->newLocalLeaf, req.newLocalLeaf);
    EXPECT_EQ(parsed->write, req.write);
    EXPECT_EQ(parsed->data, req.data);

    sdimm::AccessResponse resp;
    resp.data[1] = 0x3c;
    resp.data[62] = 0xc3;
    const auto got = sdimm::unpackResponse(sdimm::packResponse(resp));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->data, resp.data);
}

} // namespace
} // namespace secdimm::verify

/**
 * @file
 * Tests of trace serialization (text and binary round trips,
 * malformed-input handling via death tests).
 */

#include <gtest/gtest.h>
#include <limits>
#include <sstream>
#include <vector>

#include "trace/generator.hh"
#include "trace/io.hh"
#include "trace/profile.hh"

namespace {

using namespace suit::trace;
using suit::isa::FaultableKind;

Trace
sampleTrace()
{
    return Trace("sample", 100'000, 1.75,
                 {{10, FaultableKind::VOR},
                  {0, FaultableKind::AESENC},
                  {99'000, FaultableKind::VPCLMULQDQ}},
                 4.0);
}

void
expectEqualTraces(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
    EXPECT_NEAR(a.ipc(), b.ipc(), 1e-3);
    EXPECT_NEAR(a.eventWeight(), b.eventWeight(), 1e-3);
    ASSERT_EQ(a.eventCount(), b.eventCount());
    for (std::size_t i = 0; i < a.eventCount(); ++i) {
        EXPECT_EQ(a.events()[i].gap, b.events()[i].gap);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    }
}

TEST(TraceIo, TextRoundTrip)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeText(t, ss);
    expectEqualTraces(t, readText(ss));
}

TEST(TraceIo, BinaryRoundTrip)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeBinary(t, ss);
    expectEqualTraces(t, readBinary(ss));
}

TEST(TraceIo, GeneratedTraceRoundTripsBothFormats)
{
    const Trace t =
        TraceGenerator(11).generate(profileByName("520.omnetpp"));
    {
        std::stringstream ss;
        writeBinary(t, ss);
        expectEqualTraces(t, readBinary(ss));
    }
    {
        std::stringstream ss;
        writeText(t, ss);
        expectEqualTraces(t, readText(ss));
    }
}

TEST(TraceIo, BinaryIsCompact)
{
    const Trace t =
        TraceGenerator(12).generate(profileByName("557.xz"));
    std::stringstream text, binary;
    writeText(t, text);
    writeBinary(t, binary);
    EXPECT_LT(binary.str().size(), text.str().size() / 2);
    // Roughly <= 6 bytes per event on average (varint gaps).
    EXPECT_LT(binary.str().size(), t.eventCount() * 8 + 128);
}

TEST(TraceIo, FileRoundTripViaExtensionDispatch)
{
    const Trace t = sampleTrace();
    const std::string text_path = "/tmp/suit_io_test.sft";
    const std::string bin_path = "/tmp/suit_io_test.sfb";
    saveTrace(t, text_path);
    saveTrace(t, bin_path);
    expectEqualTraces(t, loadTrace(text_path));
    expectEqualTraces(t, loadTrace(bin_path));
    std::remove(text_path.c_str());
    std::remove(bin_path.c_str());
}

TEST(TraceIoDeathTest, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "definitely not a trace\n";
    EXPECT_EXIT(readText(ss), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeathTest, RejectsTruncatedBinary)
{
    const Trace t = sampleTrace();
    std::stringstream ss;
    writeBinary(t, ss);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_EXIT(readBinary(cut), ::testing::ExitedWithCode(1),
                "truncated");
}

/** A text trace with the given header values and event lines. */
std::string
textTrace(const std::string &instructions, const std::string &ipc,
          const std::string &weight, const std::string &events,
          const std::string &body)
{
    return "suit-trace v1\nname hostile\ninstructions " + instructions +
           "\nipc " + ipc + "\nweight " + weight + "\nevents " + events +
           "\n" + body;
}

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/**
 * A binary trace with the given header values (ipc and weight in
 * milli-units, as stored) followed by @p gaps as VOR events.
 */
std::string
binaryTrace(std::uint64_t instructions, std::uint64_t ipc_milli,
            std::uint64_t weight_milli, std::uint64_t count,
            const std::vector<std::uint64_t> &gaps)
{
    std::string out = "1TFS"; // magic 0x53465431, little-endian
    putVarint(out, 7);
    out += "hostile";
    putVarint(out, instructions);
    putVarint(out, ipc_milli);
    putVarint(out, weight_milli);
    putVarint(out, count);
    for (const std::uint64_t gap : gaps) {
        putVarint(out, gap);
        out.push_back(static_cast<char>(FaultableKind::VOR));
    }
    return out;
}

Trace
readTextString(const std::string &bytes)
{
    std::stringstream ss(bytes);
    return readText(ss);
}

Trace
readBinaryString(const std::string &bytes)
{
    std::stringstream ss(bytes);
    return readBinary(ss);
}

TEST(TraceIo, HostileHelpersBuildValidTracesWhenBenign)
{
    const Trace text =
        readTextString(textTrace("100", "1.5", "2", "1", "10 VOR\n"));
    EXPECT_EQ(text.eventCount(), 1u);
    EXPECT_EQ(text.eventIndex(0), 10u);
    const Trace binary =
        readBinaryString(binaryTrace(100, 1500, 2000, 2, {10, 20}));
    EXPECT_EQ(binary.name(), "hostile");
    EXPECT_EQ(binary.eventCount(), 2u);
    EXPECT_EQ(binary.eventIndex(1), 31u);
    EXPECT_NEAR(binary.ipc(), 1.5, 1e-12);
}

TEST(TraceIoDeathTest, TextRejectsHugeEventCountWithoutAllocating)
{
    EXPECT_EXIT(readTextString(textTrace("1000", "1", "1",
                                         "99999999999999", "10 VOR\n")),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceIoDeathTest, TextRejectsNonPositiveIpc)
{
    EXPECT_EXIT(readTextString(textTrace("1000", "0", "1", "0", "")),
                ::testing::ExitedWithCode(1), "positive IPC");
    EXPECT_EXIT(readTextString(textTrace("1000", "-2", "1", "0", "")),
                ::testing::ExitedWithCode(1), "positive IPC");
}

TEST(TraceIoDeathTest, TextRejectsWeightBelowOne)
{
    EXPECT_EXIT(readTextString(textTrace("1000", "1", "0.5", "0", "")),
                ::testing::ExitedWithCode(1), "weight");
}

TEST(TraceIoDeathTest, TextRejectsEventsPastStreamEnd)
{
    EXPECT_EXIT(readTextString(textTrace("20", "1", "1", "2",
                                         "10 VOR\n9 VOR\n")),
                ::testing::ExitedWithCode(1), "runs past");
    EXPECT_EXIT(readTextString(textTrace(
                    "20", "1", "1", "2",
                    "10 VOR\n18446744073709551615 VOR\n")),
                ::testing::ExitedWithCode(1), "runs past");
}

TEST(TraceIoDeathTest, BinaryRejectsHugeEventCountWithoutAllocating)
{
    EXPECT_EXIT(readBinaryString(
                    binaryTrace(1000, 1000, 1000, 99999999999999, {10})),
                ::testing::ExitedWithCode(1), "truncated");
    EXPECT_EXIT(readBinaryString(binaryTrace(
                    1000, 1000, 1000,
                    std::numeric_limits<std::uint64_t>::max(), {})),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceIoDeathTest, BinaryRejectsNonPositiveIpc)
{
    EXPECT_EXIT(readBinaryString(binaryTrace(1000, 0, 1000, 0, {})),
                ::testing::ExitedWithCode(1), "positive IPC");
}

TEST(TraceIoDeathTest, BinaryRejectsWeightBelowOne)
{
    EXPECT_EXIT(readBinaryString(binaryTrace(1000, 1000, 999, 0, {})),
                ::testing::ExitedWithCode(1), "weight");
}

TEST(TraceIoDeathTest, BinaryRejectsEventsPastStreamEnd)
{
    EXPECT_EXIT(readBinaryString(binaryTrace(20, 1000, 1000, 2, {10, 9})),
                ::testing::ExitedWithCode(1), "runs past");
    EXPECT_EXIT(readBinaryString(binaryTrace(
                    20, 1000, 1000, 2,
                    {10, std::numeric_limits<std::uint64_t>::max()})),
                ::testing::ExitedWithCode(1), "runs past");
}

TEST(TraceIoDeathTest, RejectsUnknownExtension)
{
    EXPECT_EXIT(saveTrace(sampleTrace(), "/tmp/foo.json"),
                ::testing::ExitedWithCode(1), "must end in");
}

} // namespace

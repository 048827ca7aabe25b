#include "trace/io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace suit::trace {

using suit::util::fatal;

namespace {

constexpr char kTextMagic[] = "suit-trace v1";
constexpr std::uint32_t kBinaryMagic = 0x53465431; // "SFT1"

/** LEB128-style varint encoding. */
void
writeVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

std::uint64_t
readVarint(std::istream &is)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        const int c = is.get();
        if (c == EOF)
            fatal("trace stream truncated inside a varint");
        v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
        if (!(c & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            fatal("trace stream contains an oversized varint");
    }
}

void
writeU32(std::ostream &os, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        os.put(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t
readU32(std::istream &is)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        const int c = is.get();
        if (c == EOF)
            fatal("trace stream truncated in a fixed field");
        v |= static_cast<std::uint32_t>(c) << (8 * i);
    }
    return v;
}

/**
 * Events reserved up front when the stream cannot bound the count;
 * the columns grow past it as events actually arrive, so a hostile
 * header count costs nothing until the events exist.
 */
constexpr std::uint64_t kReserveCap = 1U << 20;

/** Smallest .sfb event: a one-byte gap varint plus the kind byte. */
constexpr std::uint64_t kMinBinaryEventBytes = 2;

/** Bytes left in @p is, or kReserveCap events' worth if unknown. */
std::uint64_t
remainingBytes(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return kReserveCap * kMinBinaryEventBytes;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (!is || end == std::istream::pos_type(-1) || end < here)
        fatal("trace stream is not seekable");
    return static_cast<std::uint64_t>(end - here);
}

/**
 * Reject header values the Trace constructor would assert on, so a
 * malformed file takes the fatal() path instead of a panic.
 */
void
checkHeader(const std::string &name, double ipc, double weight)
{
    if (!(ipc > 0.0))
        fatal("trace '%s' needs a positive IPC (got %g)", name.c_str(),
              ipc);
    if (!(weight >= 1.0))
        fatal("trace '%s' needs an event weight >= 1 (got %g)",
              name.c_str(), weight);
}

/** Append one parsed event, rejecting one that runs past @p total. */
void
appendEvent(EventColumns &events, const std::string &name,
            std::uint64_t total, std::uint64_t gap,
            suit::isa::FaultableKind kind)
{
    // span() <= total holds for every accepted event, and the event
    // needs gap + 1 more instructions.
    if (gap >= total - events.span())
        fatal("trace '%s': event %zu runs past the %llu-instruction "
              "stream",
              name.c_str(), events.size(),
              static_cast<unsigned long long>(total));
    events.push_back(gap, kind);
}

} // namespace

void
writeText(const Trace &trace, std::ostream &os)
{
    os << kTextMagic << '\n';
    os << "name " << trace.name() << '\n';
    os << "instructions " << trace.totalInstructions() << '\n';
    os << "ipc " << trace.ipc() << '\n';
    os << "weight " << trace.eventWeight() << '\n';
    os << "events " << trace.eventCount() << '\n';
    for (const FaultableEvent &e : trace.events())
        os << e.gap << ' ' << suit::isa::toString(e.kind) << '\n';
}

Trace
readText(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != kTextMagic)
        fatal("not a suit-trace text file (bad magic '%s')",
              line.c_str());

    std::string name;
    std::uint64_t total = 0;
    double ipc = 0.0, weight = 1.0;
    std::uint64_t count = 0;
    for (int i = 0; i < 5; ++i) {
        if (!std::getline(is, line))
            fatal("trace header truncated");
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "name")
            ls >> name;
        else if (key == "instructions")
            ls >> total;
        else if (key == "ipc")
            ls >> ipc;
        else if (key == "weight")
            ls >> weight;
        else if (key == "events")
            ls >> count;
        else
            fatal("unknown trace header field '%s'", key.c_str());
        if (ls.fail())
            fatal("malformed trace header line '%s'", line.c_str());
    }

    checkHeader(name, ipc, weight);

    EventColumns events;
    events.reserve(std::min(count, kReserveCap));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t gap = 0;
        std::string mnemonic;
        if (!(is >> gap >> mnemonic))
            fatal("trace events truncated at %llu of %llu",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(count));
        appendEvent(events, name, total, gap,
                    suit::isa::faultableKindFromString(mnemonic));
    }
    return Trace(name, total, ipc, std::move(events), weight);
}

void
writeBinary(const Trace &trace, std::ostream &os)
{
    writeU32(os, kBinaryMagic);
    writeVarint(os, trace.name().size());
    os.write(trace.name().data(),
             static_cast<std::streamsize>(trace.name().size()));
    writeVarint(os, trace.totalInstructions());
    // IPC and weight as fixed-point milli-units.
    writeVarint(os, static_cast<std::uint64_t>(trace.ipc() * 1000.0 +
                                               0.5));
    writeVarint(os, static_cast<std::uint64_t>(
                        trace.eventWeight() * 1000.0 + 0.5));
    writeVarint(os, trace.eventCount());
    for (const FaultableEvent &e : trace.events()) {
        writeVarint(os, e.gap);
        os.put(static_cast<char>(e.kind));
    }
}

Trace
readBinary(std::istream &is)
{
    if (readU32(is) != kBinaryMagic)
        fatal("not a suit-trace binary file (bad magic)");
    const std::uint64_t name_len = readVarint(is);
    if (name_len > 4096)
        fatal("trace name is implausibly long");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!is)
        fatal("trace stream truncated in the name");
    const std::uint64_t total = readVarint(is);
    const double ipc =
        static_cast<double>(readVarint(is)) / 1000.0;
    const double weight =
        static_cast<double>(readVarint(is)) / 1000.0;
    const std::uint64_t count = readVarint(is);
    checkHeader(name, ipc, weight);

    EventColumns events;
    events.reserve(
        std::min(count, remainingBytes(is) / kMinBinaryEventBytes));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t gap = readVarint(is);
        const int kind = is.get();
        if (kind == EOF)
            fatal("trace events truncated");
        if (kind < 0 ||
            kind >= static_cast<int>(suit::isa::kNumFaultableKinds))
            fatal("trace contains unknown instruction id %d", kind);
        appendEvent(events, name, total, gap,
                    static_cast<suit::isa::FaultableKind>(kind));
    }
    return Trace(name, total, ipc, std::move(events), weight);
}

namespace {

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

} // namespace

void
saveTrace(const Trace &trace, const std::string &path)
{
    const bool binary = hasSuffix(path, ".sfb");
    if (!binary && !hasSuffix(path, ".sft"))
        fatal("trace path '%s' must end in .sft (text) or .sfb "
              "(binary)",
              path.c_str());
    std::ofstream os(path,
                     binary ? std::ios::binary : std::ios::out);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    if (binary)
        writeBinary(trace, os);
    else
        writeText(trace, os);
    if (!os)
        fatal("write to '%s' failed", path.c_str());
}

Trace
loadTrace(const std::string &path)
{
    const bool binary = hasSuffix(path, ".sfb");
    if (!binary && !hasSuffix(path, ".sft"))
        fatal("trace path '%s' must end in .sft (text) or .sfb "
              "(binary)",
              path.c_str());
    std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
    if (!is)
        fatal("cannot open '%s'", path.c_str());
    return binary ? readBinary(is) : readText(is);
}

} // namespace suit::trace

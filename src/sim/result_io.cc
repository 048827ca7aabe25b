#include "sim/result_io.hh"

#include "util/bytes.hh"

namespace suit::sim {

using suit::util::ByteReader;
using suit::util::putF64;
using suit::util::putString;
using suit::util::putU64;
using suit::util::putU8;

void
serializeResult(const DomainResult &result, std::string &out)
{
    putU64(result.cores.size(), out);
    for (const CoreResult &core : result.cores) {
        putString(core.workload, out);
        putF64(core.durationS, out);
        putF64(core.baselineDurationS, out);
    }
    putU64(result.stateLog.size(), out);
    for (const PStateChange &change : result.stateLog) {
        putU64(change.when, out);
        putU8(static_cast<std::uint8_t>(change.to), out);
        putU8(change.trap ? 1 : 0, out);
    }
    putF64(result.powerFactor, out);
    putF64(result.efficientShare, out);
    putF64(result.cfShare, out);
    putF64(result.cvShare, out);
    putU64(result.traps, out);
    putU64(result.emulations, out);
    putU64(result.pstateSwitches, out);
    putU64(result.thrashDetections, out);
}

bool
deserializeResult(const char *data, std::size_t size,
                  std::size_t &offset, DomainResult &out)
{
    ByteReader r(data, size, offset);

    const std::uint64_t cores = r.u64();
    // An element floor of 17 bytes per core bounds the allocation
    // before trusting the count, so a corrupt length can't trigger a
    // multi-gigabyte reserve.
    if (!r.ok() || cores > r.remaining() / 17)
        return false;
    out.cores.clear();
    out.cores.reserve(cores);
    for (std::uint64_t i = 0; i < cores; ++i) {
        CoreResult core;
        core.workload = r.str();
        core.durationS = r.f64();
        core.baselineDurationS = r.f64();
        if (!r.ok())
            return false;
        out.cores.push_back(std::move(core));
    }

    const std::uint64_t changes = r.u64();
    if (!r.ok() || changes > r.remaining() / 10)
        return false;
    out.stateLog.clear();
    out.stateLog.reserve(changes);
    for (std::uint64_t i = 0; i < changes; ++i) {
        PStateChange change;
        change.when = r.u64();
        const std::uint8_t to = r.u8();
        if (to > static_cast<std::uint8_t>(
                     suit::power::SuitPState::ConservativeVolt))
            return false;
        change.to = static_cast<suit::power::SuitPState>(to);
        change.trap = r.u8() != 0;
        if (!r.ok())
            return false;
        out.stateLog.push_back(change);
    }

    out.powerFactor = r.f64();
    out.efficientShare = r.f64();
    out.cfShare = r.f64();
    out.cvShare = r.f64();
    out.traps = r.u64();
    out.emulations = r.u64();
    out.pstateSwitches = r.u64();
    out.thrashDetections = r.u64();
    if (!r.ok())
        return false;

    offset = r.pos();
    return true;
}

} // namespace suit::sim

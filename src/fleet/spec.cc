#include "fleet/spec.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "sim/trace_cache.hh"
#include "trace/profile.hh"
#include "util/args.hh"
#include "util/format.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace suit::fleet {

namespace {

using suit::core::StrategyKind;

/** Strategy name -> kind; throws SpecError on an unknown name. */
StrategyKind
strategyByName(const std::string &name, int line)
{
    if (name == "e" || name == "emulation")
        return StrategyKind::Emulation;
    if (name == "f" || name == "frequency")
        return StrategyKind::Frequency;
    if (name == "V" || name == "voltage")
        return StrategyKind::Voltage;
    if (name == "fV" || name == "combined")
        return StrategyKind::CombinedFv;
    if (name == "hybrid" || name == "e+fV")
        return StrategyKind::Hybrid;
    throw SpecError(suit::util::sformat(
        "line %d: unknown strategy '%s' (e, f, V, fV, hybrid)", line,
        name.c_str()));
}

/** Split on @p sep, dropping empty items. */
std::vector<std::string>
splitOn(const std::string &value, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t pos = value.find(sep, start);
        const std::string item =
            value.substr(start, pos == std::string::npos
                                    ? std::string::npos
                                    : pos - start);
        if (!item.empty())
            out.push_back(item);
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return out;
}

/** Whitespace-separated tokens of one line. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
        std::size_t j = i;
        while (j < line.size() && line[j] != ' ' && line[j] != '\t')
            ++j;
        if (j > i)
            out.push_back(line.substr(i, j - i));
        i = j;
    }
    return out;
}

double
parseDoubleOr(const std::string &text, int line, const char *what)
{
    double value = 0.0;
    if (suit::util::tryParseDouble(text, value) !=
        suit::util::ParseStatus::Ok)
        throw SpecError(suit::util::sformat(
            "line %d: %s expects a number, got '%s'", line, what,
            text.c_str()));
    return value;
}

std::uint64_t
parseCountOr(const std::string &text, int line, const char *what)
{
    long value = 0;
    if (suit::util::tryParseLong(text, value) !=
            suit::util::ParseStatus::Ok ||
        value < 1)
        throw SpecError(suit::util::sformat(
            "line %d: %s expects a positive integer, got '%s'", line,
            what, text.c_str()));
    return static_cast<std::uint64_t>(value);
}

/** Verify @p cpu is a known model name. */
void
checkCpuName(const std::string &cpu, int line)
{
    if (cpu != "A" && cpu != "B" && cpu != "C" && cpu != "i5")
        throw SpecError(suit::util::sformat(
            "line %d: unknown CPU '%s' (use A, B, C or i5)", line,
            cpu.c_str()));
}

/** Parse one `rack <name> key=value ...` line. */
RackSpec
parseRack(const std::vector<std::string> &tokens, int line)
{
    if (tokens.size() < 2)
        throw SpecError(suit::util::sformat(
            "line %d: rack needs a name ('rack <name> key=value "
            "...')",
            line));
    RackSpec rack;
    rack.name = tokens[1];
    bool saw_domains = false;
    bool saw_workloads = false;
    for (std::size_t t = 2; t < tokens.size(); ++t) {
        const std::string &tok = tokens[t];
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw SpecError(suit::util::sformat(
                "line %d: expected key=value, got '%s'", line,
                tok.c_str()));
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        if (key == "cpu") {
            checkCpuName(value, line);
            rack.cpu = value;
        } else if (key == "domains") {
            rack.domains = parseCountOr(value, line, "domains");
            saw_domains = true;
        } else if (key == "cores") {
            const std::uint64_t cores =
                parseCountOr(value, line, "cores");
            if (cores > suit::sim::TraceCache::kMaxStreams)
                throw SpecError(suit::util::sformat(
                    "line %d: cores=%llu is not a plausible "
                    "per-domain core count (cap %d)",
                    line, static_cast<unsigned long long>(cores),
                    suit::sim::TraceCache::kMaxStreams));
            rack.cores = static_cast<int>(cores);
        } else if (key == "workloads") {
            rack.workloads.clear();
            for (const std::string &item : splitOn(value, ',')) {
                TenantMix mix;
                const std::size_t colon = item.find(':');
                mix.workload = item.substr(0, colon);
                if (colon != std::string::npos)
                    mix.weight = parseDoubleOr(
                        item.substr(colon + 1), line,
                        "workload weight");
                if (!(mix.weight > 0.0))
                    throw SpecError(suit::util::sformat(
                        "line %d: workload weight for '%s' must be "
                        "> 0",
                        line, mix.workload.c_str()));
                if (!suit::trace::hasProfile(mix.workload))
                    throw SpecError(suit::util::sformat(
                        "line %d: unknown workload '%s'", line,
                        mix.workload.c_str()));
                rack.workloads.push_back(std::move(mix));
            }
            if (rack.workloads.empty())
                throw SpecError(suit::util::sformat(
                    "line %d: workloads list is empty", line));
            saw_workloads = true;
        } else if (key == "strategy") {
            rack.strategies.clear();
            rack.strategyNames.clear();
            for (const std::string &name : splitOn(value, ',')) {
                rack.strategies.push_back(
                    strategyByName(name, line));
                rack.strategyNames.push_back(name);
            }
            if (rack.strategies.empty())
                throw SpecError(suit::util::sformat(
                    "line %d: strategy list is empty", line));
        } else if (key == "offset") {
            rack.offsetsMv.clear();
            for (const std::string &item : splitOn(value, ',')) {
                const double mv =
                    parseDoubleOr(item, line, "offset");
                if (mv > 0.0)
                    throw SpecError(suit::util::sformat(
                        "line %d: offsets are undervolts and must "
                        "be <= 0 mV, got %g",
                        line, mv));
                rack.offsetsMv.push_back(mv);
            }
            if (rack.offsetsMv.empty())
                throw SpecError(suit::util::sformat(
                    "line %d: offset list is empty", line));
        } else if (key == "variants") {
            const std::uint64_t variants =
                parseCountOr(value, line, "variants");
            if (variants > 256)
                throw SpecError(suit::util::sformat(
                    "line %d: variants=%llu exceeds the 256 trace "
                    "variants a rack may hold",
                    line,
                    static_cast<unsigned long long>(variants)));
            rack.traceVariants = static_cast<int>(variants);
        } else {
            throw SpecError(suit::util::sformat(
                "line %d: unknown rack key '%s'", line,
                key.c_str()));
        }
    }
    if (!saw_domains)
        throw SpecError(suit::util::sformat(
            "line %d: rack '%s' needs domains=<n>", line,
            rack.name.c_str()));
    if (!saw_workloads)
        throw SpecError(suit::util::sformat(
            "line %d: rack '%s' needs workloads=<name[:weight],...>",
            line, rack.name.c_str()));
    return rack;
}

} // namespace

std::uint64_t
FleetSpec::totalDomains() const
{
    std::uint64_t total = 0;
    for (const RackSpec &rack : racks)
        total += rack.domains;
    return total;
}

DomainConfig
FleetSpec::domainAt(std::uint64_t index) const
{
    // Locate the rack (racks are consecutive index ranges).
    std::uint32_t rack_idx = 0;
    std::uint64_t first = 0;
    while (rack_idx < racks.size() &&
           index >= first + racks[rack_idx].domains) {
        first += racks[rack_idx].domains;
        ++rack_idx;
    }
    SUIT_ASSERT(rack_idx < racks.size(),
                "domain index %llu out of range (%llu domains)",
                static_cast<unsigned long long>(index),
                static_cast<unsigned long long>(totalDomains()));
    const RackSpec &rack = racks[rack_idx];

    // Every draw comes from a generator seeded purely by
    // (fleet seed, global index) — golden-ratio mixed so consecutive
    // domains decorrelate — which makes the expansion independent of
    // sharding, worker count and evaluation order.
    suit::util::Rng rng(seed ^
                        (0x9E3779B97F4A7C15ULL * (index + 1)));

    DomainConfig cfg;
    cfg.rack = rack_idx;

    // Weighted tenant pick.
    double total_weight = 0.0;
    for (const TenantMix &mix : rack.workloads)
        total_weight += mix.weight;
    double draw = rng.nextDouble() * total_weight;
    std::uint16_t workload = 0;
    for (std::size_t w = 0; w < rack.workloads.size(); ++w) {
        draw -= rack.workloads[w].weight;
        if (draw < 0.0) {
            workload = static_cast<std::uint16_t>(w);
            break;
        }
        // Rounding may leave draw >= 0 after the last tenant; the
        // last one then wins.
        workload = static_cast<std::uint16_t>(w);
    }
    cfg.workload = workload;

    cfg.strategy = static_cast<std::uint8_t>(
        rng.nextBelow(rack.strategies.size()));
    cfg.offsetMv = rack.offsetsMv[static_cast<std::size_t>(
        rng.nextBelow(rack.offsetsMv.size()))];
    cfg.variant = static_cast<std::uint8_t>(
        rng.nextBelow(static_cast<std::uint64_t>(rack.traceVariants)));
    cfg.simSeed = rng.next();

    // The trace seed identifies the (workload, variant) stream, NOT
    // the domain: all domains of a variant share one cached trace,
    // which is what keeps a million-domain fleet memory-lean.  Racks
    // using the same workload share variants too (the profile bytes
    // are identical), so the cache holds workloads x variants traces.
    const std::string &workload_name =
        rack.workloads[cfg.workload].workload;
    std::uint64_t h = suit::util::fnv1a64(workload_name.data(),
                                          workload_name.size(), seed);
    const unsigned char variant_byte =
        static_cast<unsigned char>(cfg.variant);
    cfg.traceSeed = suit::util::fnv1a64(&variant_byte, 1, h);
    return cfg;
}

void
FleetSpec::scaleDomains(std::uint64_t domains)
{
    SUIT_ASSERT(domains >= 1, "cannot scale a fleet to 0 domains");
    const std::uint64_t current = totalDomains();
    SUIT_ASSERT(current >= 1, "cannot scale an empty fleet");
    // Every rack keeps at least one domain, so fewer domains than
    // racks has no valid distribution.
    if (domains < racks.size())
        throw SpecError(suit::util::sformat(
            "cannot scale fleet '%s' to %llu domains: it has %zu "
            "racks and every rack keeps at least one domain",
            name.c_str(), static_cast<unsigned long long>(domains),
            racks.size()));
    std::uint64_t assigned = 0;
    for (RackSpec &rack : racks) {
        rack.domains = std::max<std::uint64_t>(
            1, rack.domains * domains / current);
        assigned += rack.domains;
    }
    // Distribute the rounding remainder (or trim the excess) over
    // the racks in declaration order so totals match exactly.
    std::size_t r = 0;
    while (assigned < domains) {
        ++racks[r % racks.size()].domains;
        ++assigned;
        ++r;
    }
    while (assigned > domains) {
        RackSpec &rack = racks[r % racks.size()];
        if (rack.domains > 1) {
            --rack.domains;
            --assigned;
        }
        ++r;
    }
}

std::uint64_t
FleetSpec::fingerprint(std::uint64_t modelVersion) const
{
    using suit::util::fnv1a64;
    std::uint64_t h = fnv1a64(nullptr, 0);
    const auto mix_u64 = [&](std::uint64_t v) {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] =
                static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        h = fnv1a64(bytes, sizeof(bytes), h);
    };
    const auto mix_double = [&](double d) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        mix_u64(bits);
    };
    const auto mix_string = [&](const std::string &s) {
        mix_u64(s.size());
        h = fnv1a64(s.data(), s.size(), h);
    };

    mix_u64(modelVersion);
    mix_string(name);
    mix_u64(seed);
    mix_double(traceScale);
    mix_u64(racks.size());
    for (const RackSpec &rack : racks) {
        mix_string(rack.name);
        mix_string(rack.cpu);
        mix_u64(rack.domains);
        mix_u64(static_cast<std::uint64_t>(rack.cores));
        mix_u64(rack.workloads.size());
        for (const TenantMix &mix : rack.workloads) {
            mix_string(mix.workload);
            mix_double(mix.weight);
        }
        mix_u64(rack.strategies.size());
        for (const StrategyKind kind : rack.strategies)
            mix_u64(static_cast<std::uint64_t>(kind));
        mix_u64(rack.offsetsMv.size());
        for (const double mv : rack.offsetsMv)
            mix_double(mv);
        mix_u64(static_cast<std::uint64_t>(rack.traceVariants));
    }
    return h;
}

FleetSpec
FleetSpec::parse(const std::string &text)
{
    FleetSpec spec;
    spec.racks.clear();
    std::set<std::string> rack_names;

    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        std::string line =
            text.substr(pos, nl == std::string::npos
                                 ? std::string::npos
                                 : nl - pos);
        pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
        ++line_no;

        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty())
            continue;

        if (tokens[0] == "rack") {
            RackSpec rack = parseRack(tokens, line_no);
            if (!rack_names.insert(rack.name).second)
                throw SpecError(suit::util::sformat(
                    "line %d: duplicate rack name '%s'", line_no,
                    rack.name.c_str()));
            spec.racks.push_back(std::move(rack));
            continue;
        }

        // Fleet-wide `key = value` (tolerate `key=value` too).
        std::string key, value;
        if (tokens.size() == 3 && tokens[1] == "=") {
            key = tokens[0];
            value = tokens[2];
        } else if (tokens.size() == 1 &&
                   tokens[0].find('=') != std::string::npos) {
            const std::size_t eq = tokens[0].find('=');
            key = tokens[0].substr(0, eq);
            value = tokens[0].substr(eq + 1);
        } else {
            throw SpecError(suit::util::sformat(
                "line %d: expected 'key = value' or 'rack ...', got "
                "'%s'",
                line_no, line.c_str()));
        }
        if (key.empty() || value.empty())
            throw SpecError(suit::util::sformat(
                "line %d: empty key or value", line_no));

        if (key == "name") {
            spec.name = value;
        } else if (key == "seed") {
            spec.seed = parseCountOr(value, line_no, "seed");
        } else if (key == "pue") {
            spec.pue = parseDoubleOr(value, line_no, "pue");
            if (spec.pue < 1.0)
                throw SpecError(suit::util::sformat(
                    "line %d: pue must be >= 1.0, got %g", line_no,
                    spec.pue));
        } else if (key == "cost_usd_per_kwh") {
            spec.costUsdPerKwh =
                parseDoubleOr(value, line_no, "cost_usd_per_kwh");
            if (spec.costUsdPerKwh < 0.0)
                throw SpecError(suit::util::sformat(
                    "line %d: cost_usd_per_kwh must be >= 0",
                    line_no));
        } else if (key == "trace_scale") {
            spec.traceScale =
                parseDoubleOr(value, line_no, "trace_scale");
            if (!(spec.traceScale > 0.0) || spec.traceScale > 1.0)
                throw SpecError(suit::util::sformat(
                    "line %d: trace_scale must be in (0, 1], got %g",
                    line_no, spec.traceScale));
        } else {
            throw SpecError(suit::util::sformat(
                "line %d: unknown fleet key '%s'", line_no,
                key.c_str()));
        }
    }

    if (spec.racks.empty())
        throw SpecError("spec declares no racks");
    return spec;
}

FleetSpec
FleetSpec::parseFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SpecError(suit::util::sformat(
            "cannot open fleet spec '%s'", path.c_str()));
    std::string text;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw SpecError(suit::util::sformat(
            "cannot read fleet spec '%s'", path.c_str()));
    try {
        return parse(text);
    } catch (const SpecError &e) {
        throw SpecError(suit::util::sformat("%s: %s", path.c_str(),
                                            e.what()));
    }
}

FleetSpec
FleetSpec::demo(std::uint64_t domains)
{
    // The five-rack data-center scenario of the original example,
    // with Dim-Silicon-style per-tenant heterogeneity: front ends
    // mix strategies, the build farm mixes offsets.
    FleetSpec spec = parse(
        "name = demo\n"
        "seed = 7\n"
        "pue = 1.4\n"
        "cost_usd_per_kwh = 0.10\n"
        "trace_scale = 0.002\n"
        "rack web    cpu=C domains=40 workloads=Nginx:4,VLC:1 "
        "strategy=fV,hybrid offset=-97 variants=4\n"
        "rack logs   cpu=C domains=25 workloads=557.xz "
        "strategy=e,fV offset=-97 variants=4\n"
        "rack build  cpu=A domains=20 workloads=502.gcc "
        "strategy=hybrid offset=-70,-97 variants=4\n"
        "rack render cpu=C domains=10 workloads=526.blender "
        "strategy=fV offset=-97 variants=4\n"
        "rack netsim cpu=B domains=5 workloads=520.omnetpp "
        "strategy=V offset=-70 variants=2\n");
    spec.scaleDomains(domains);
    return spec;
}

} // namespace suit::fleet

#include "util/args.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/format.hh"
#include "util/logging.hh"

namespace suit::util {

ParseStatus
tryParseLong(const std::string &text, long &out)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        return ParseStatus::BadFormat;
    if (errno == ERANGE)
        return ParseStatus::OutOfRange;
    out = value;
    return ParseStatus::Ok;
}

ParseStatus
tryParseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return ParseStatus::BadFormat;
    // ERANGE covers both overflow (to +/-HUGE_VAL) and subnormal
    // underflow; only the former loses the user's magnitude.
    if (errno == ERANGE && std::isinf(value))
        return ParseStatus::OutOfRange;
    out = value;
    return ParseStatus::Ok;
}

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string item =
            value.substr(start, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addOption(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    SUIT_ASSERT(options_.count(name) == 0, "duplicate option --%s",
                name.c_str());
    options_[name] = Option{default_value, default_value, help, false,
                            false};
    order_.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    SUIT_ASSERT(options_.count(name) == 0, "duplicate flag --%s",
                name.c_str());
    options_[name] = Option{"0", "0", help, true, false};
    order_.push_back(name);
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown option --%s (try --help)", name.c_str());
        Option &opt = it->second;
        if (opt.isFlag) {
            if (has_value)
                fatal("flag --%s takes no value", name.c_str());
            // Move-assigned: GCC 12 at -O3 reports a false -Wrestrict
            // on the inlined assignment of a short literal.
            opt.value = std::string("1");
        } else {
            if (!has_value) {
                if (i + 1 >= argc)
                    fatal("option --%s needs a value", name.c_str());
                value = argv[++i];
            }
            opt.value = value;
        }
        opt.seen = true;
    }
    return true;
}

const ArgParser::Option &
ArgParser::find(const std::string &name) const
{
    const auto it = options_.find(name);
    SUIT_ASSERT(it != options_.end(), "undeclared option --%s",
                name.c_str());
    return it->second;
}

const std::string &
ArgParser::get(const std::string &name) const
{
    return find(name).value;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string &v = get(name);
    double d = 0.0;
    switch (tryParseDouble(v, d)) {
      case ParseStatus::Ok:
        return d;
      case ParseStatus::OutOfRange:
        fatal("option --%s value '%s' is out of range",
              name.c_str(), v.c_str());
      case ParseStatus::BadFormat:
      default:
        fatal("option --%s expects a number, got '%s'", name.c_str(),
              v.c_str());
    }
}

long
ArgParser::getInt(const std::string &name) const
{
    const std::string &v = get(name);
    long l = 0;
    switch (tryParseLong(v, l)) {
      case ParseStatus::Ok:
        return l;
      case ParseStatus::OutOfRange:
        fatal("option --%s value '%s' is out of range",
              name.c_str(), v.c_str());
      case ParseStatus::BadFormat:
      default:
        fatal("option --%s expects an integer, got '%s'",
              name.c_str(), v.c_str());
    }
}

long
ArgParser::getIntInRange(const std::string &name, long lo,
                         long hi) const
{
    SUIT_ASSERT(lo <= hi, "empty range [%ld, %ld] for --%s", lo, hi,
                name.c_str());
    const long value = getInt(name);
    if (value < lo || value > hi)
        fatal("option --%s value %ld is out of range [%ld, %ld]",
              name.c_str(), value, lo, hi);
    return value;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    const Option &opt = find(name);
    SUIT_ASSERT(opt.isFlag, "--%s is not a flag", name.c_str());
    return opt.value == "1";
}

std::string
ArgParser::usage() const
{
    std::string out =
        sformat("%s — %s\n\nOptions:\n", program_.c_str(),
                description_.c_str());
    for (const std::string &name : order_) {
        const Option &opt = options_.at(name);
        if (opt.isFlag) {
            out += sformat("  --%-18s %s\n", name.c_str(),
                           opt.help.c_str());
        } else {
            out += sformat("  --%-18s %s (default: %s)\n",
                           (name + " <v>").c_str(), opt.help.c_str(),
                           opt.defaultValue.c_str());
        }
    }
    return out;
}

} // namespace suit::util

/**
 * @file
 * Minimal command-line option parser for the CLI tools.
 *
 * Supports `--name value`, `--name=value` and boolean `--flag`
 * switches, collects positional arguments, and renders a usage
 * string.  Unknown options are a fatal() user error.
 */

#ifndef SUIT_UTIL_ARGS_HH
#define SUIT_UTIL_ARGS_HH

#include <map>
#include <string>
#include <vector>

namespace suit::util {

/** Outcome of the checked number parsers. */
enum class ParseStatus
{
    Ok,
    /** Not a number, or trailing junk ("x", "12x", ""). */
    BadFormat,
    /** Syntactically valid but outside the target type's range. */
    OutOfRange,
};

/**
 * Parse @p text as a base-10 long.  Unlike raw strtol this rejects
 * trailing junk and reports overflow (errno == ERANGE) instead of
 * silently saturating at LONG_MIN/LONG_MAX.  @p out is only written
 * on ParseStatus::Ok.
 */
ParseStatus tryParseLong(const std::string &text, long &out);

/**
 * Parse @p text as a double; rejects trailing junk and reports
 * overflow to +/-inf.  Subnormal underflow is accepted.  @p out is
 * only written on ParseStatus::Ok.
 */
ParseStatus tryParseDouble(const std::string &text, double &out);

/** The non-empty items of a comma-separated option value. */
std::vector<std::string> splitList(const std::string &value);

/** Declarative option parser. */
class ArgParser
{
  public:
    /**
     * @param program program name for the usage text.
     * @param description one-line tool description.
     */
    ArgParser(std::string program, std::string description);

    /** Declare a value option with a default. */
    void addOption(const std::string &name,
                   const std::string &default_value,
                   const std::string &help);

    /** Declare a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv.  Handles --help by printing usage and returning
     * false (the caller should exit 0); fatal()s on unknown options
     * or missing values.
     */
    bool parse(int argc, char **argv);

    /** @{ Typed getters (fatal() on parse errors). */
    const std::string &get(const std::string &name) const;
    double getDouble(const std::string &name) const;
    long getInt(const std::string &name) const;
    bool getFlag(const std::string &name) const;
    /**
     * getInt() with an inclusive [lo, hi] bound; fatal()s with the
     * permitted range when the value falls outside it.  The CLIs use
     * this wherever the value feeds an int (or a bounded resource
     * like a worker count), so a `--reps 5000000000` can't wrap into
     * a silent narrowing.
     */
    long getIntInRange(const std::string &name, long lo, long hi) const;
    /** @} */

    /** Positional (non-option) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string value;
        std::string defaultValue;
        std::string help;
        bool isFlag = false;
        bool seen = false;
    };

    std::string program_;
    std::string description_;
    std::vector<std::string> order_;
    std::map<std::string, Option> options_;
    std::vector<std::string> positional_;

    const Option &find(const std::string &name) const;
};

} // namespace suit::util

#endif // SUIT_UTIL_ARGS_HH

/**
 * @file
 * Strict CLI parsing shared by the tools and benches: the argv walk,
 * numbers and named choices. Bare strtoull/atoi silently turn "abc"
 * into 0 — a fuzz campaign invoked with "--seeds abc" would report
 * "0/0 seeds clean" and exit 0. These helpers fatal() on empty input,
 * trailing garbage, range overflow and unknown names, so a mistyped
 * flag aborts the run instead of faking success.
 */

#ifndef TMSIM_SIM_PARSE_HH
#define TMSIM_SIM_PARSE_HH

#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "sim/logging.hh"

namespace tmsim {

/** Reads the value of the flag being handled: the next argv entry,
 *  fatal "missing value for FLAG" when there is none. */
using NextArg = std::function<std::string()>;

/**
 * The argv walk of every tool and bench. Each entry after the program
 * name goes to @p handle(arg, next), which reads the flag's value with
 * next() and returns false for a flag it does not know. "--help" and
 * "-h" print @p usage and exit 0; an unknown flag prints "unknown
 * option: ARG" to stderr, then @p usage, and exits 2.
 */
inline void
walkArgs(int argc, char** argv, void (*usage)(),
         const std::function<bool(const std::string&, const NextArg&)>&
             handle)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        }
        const NextArg next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (!handle(arg, next)) {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            std::exit(2);
        }
    }
}

/** Parse @p val as an unsigned 64-bit number (base prefixes allowed);
 *  @p flag names the option in diagnostics. */
inline std::uint64_t
parseU64(const std::string& val, const char* flag)
{
    const char* s = val.c_str();
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0')
        fatal("%s: '%s' is not a number", flag, s);
    if (errno == ERANGE)
        fatal("%s: '%s' is out of range", flag, s);
    if (val.find('-') != std::string::npos)
        fatal("%s: '%s' must be non-negative", flag, s);
    return static_cast<std::uint64_t>(v);
}

/** Parse @p val as a signed int within [@p min, @p max]. */
inline int
parseInt(const std::string& val, const char* flag, int min = INT_MIN,
         int max = INT_MAX)
{
    const char* s = val.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 0);
    if (end == s || *end != '\0')
        fatal("%s: '%s' is not a number", flag, s);
    if (errno == ERANGE || v < min || v > max)
        fatal("%s: %s is out of range [%d, %d]", flag, s, min, max);
    return static_cast<int>(v);
}

/** Parse @p val as a finite double within [@p min, @p max]. The
 *  negated-range comparison also rejects NaN. */
inline double
parseDouble(const std::string& val, const char* flag, double min,
            double max)
{
    const char* s = val.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0')
        fatal("%s: '%s' is not a number", flag, s);
    if (errno == ERANGE || !(v >= min && v <= max))
        fatal("%s: %s is out of range [%g, %g]", flag, s, min, max);
    return v;
}

/** One spelling of an enum value, as CLIs and replay files write it. */
template <typename E>
struct Choice
{
    const char* name;
    E value;
};

/** The entry of @p table named @p name, or nullptr. Works for any
 *  table whose entries have a `name` (Choice, DesignPoint). */
template <typename T, std::size_t N>
const T*
findChoice(const T (&table)[N], const std::string& name)
{
    for (const T& e : table) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

/** Set @p out to the value @p table names @p name; false (leaving
 *  @p out alone) for an unknown name. */
template <typename E, std::size_t N>
bool
choiceValue(const Choice<E> (&table)[N], const std::string& name, E& out)
{
    const Choice<E>* e = findChoice(table, name);
    if (e)
        out = e->value;
    return e != nullptr;
}

/** Every name in @p table, '|'-separated, in table order. */
template <typename T, std::size_t N>
std::string
choiceList(const T (&table)[N])
{
    std::string names;
    for (const T& e : table)
        names += names.empty() ? e.name : std::string("|") + e.name;
    return names;
}

/** The entry of @p table named @p val; fatal, naming @p flag and every
 *  accepted spelling, for anything else. */
template <typename T, std::size_t N>
const T&
parseChoice(const std::string& val, const char* flag,
            const T (&table)[N])
{
    if (const T* e = findChoice(table, val))
        return *e;
    fatal("%s: unknown value '%s' (expected %s)", flag, val.c_str(),
          choiceList(table).c_str());
}

/** The name @p table gives @p value ("?" if none). */
template <typename E, std::size_t N>
const char*
choiceName(const Choice<E> (&table)[N], E value)
{
    for (const Choice<E>& e : table) {
        if (e.value == value)
            return e.name;
    }
    return "?";
}

} // namespace tmsim

#endif // TMSIM_SIM_PARSE_HH

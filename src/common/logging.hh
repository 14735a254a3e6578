/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * fatal():   the run cannot continue because of a user-level error (bad
 *            program, bad configuration).  Throws FatalError so library
 *            users and tests can recover.
 * panic():   an internal invariant was violated (a simulator bug).
 *            Throws PanicError.
 * warn()/inform(): non-fatal status messages on stderr.
 */

#ifndef RISC1_COMMON_LOGGING_HH
#define RISC1_COMMON_LOGGING_HH

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace risc1 {

/** Error raised for user-level problems (bad input, bad config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Error raised for internal invariant violations (simulator bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Abort the current operation due to a user-level error. */
[[noreturn]] void fatal(const std::string &msg);

/** Abort due to an internal simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Print a warning to stderr (never stops the run). */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Enable/disable warn()/inform() output (tests silence it). */
void setVerbose(bool verbose);

namespace detail {

/**
 * An argument cat() appends without a stream: a string-like, a char, a
 * bool, or an integer that a stream prints as a number (not signed
 * char or unsigned char, which it prints as characters).
 */
template <typename T>
concept CatDirect =
    std::is_same_v<T, char> || std::is_same_v<T, bool> ||
    (std::is_integral_v<T> && !std::is_same_v<T, signed char> &&
     !std::is_same_v<T, unsigned char> && !std::is_same_v<T, wchar_t> &&
     !std::is_same_v<T, char8_t> && !std::is_same_v<T, char16_t> &&
     !std::is_same_v<T, char32_t>) ||
    std::is_convertible_v<const T &, std::string_view>;

/** Append @p v to @p out as an ostream would print it. */
template <typename T>
void
catAppend(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, char>) {
        out.push_back(v);
    } else if constexpr (std::is_same_v<T, bool>) {
        out.push_back(v ? '1' : '0');
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else {
        out.append(std::string_view(v));
    }
}

} // namespace detail

/**
 * Append the text an std::ostream prints for @p args, in turn, to
 * @p out.  When every argument is a detail::CatDirect kind it is
 * appended in place; otherwise (manipulators, floating point, enums,
 * character-typed integers) the arguments go through an ostringstream.
 */
template <typename... Args>
void
catTo(std::string &out, const Args &...args)
{
    if constexpr ((detail::CatDirect<Args> && ...)) {
        (detail::catAppend(out, args), ...);
    } else {
        std::ostringstream os;
        (os << ... << args);
        out += os.str();
    }
}

/** printf-free formatting helper: cat("x=", x, " y=", y). */
template <typename... Args>
std::string
cat(const Args &...args)
{
    std::string out;
    catTo(out, args...);
    return out;
}

} // namespace risc1

#endif // RISC1_COMMON_LOGGING_HH

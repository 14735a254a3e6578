/**
 * Unit tests for common/logging.hh: cat() must print every argument
 * exactly as an std::ostringstream would, whichever way it builds the
 * string.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace risc1 {
namespace {

/** The reference: every argument streamed into one ostringstream. */
template <typename... Args>
std::string
streamed(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

enum class Shade : std::uint8_t
{
    Light,
    Dark,
};

std::ostream &
operator<<(std::ostream &os, Shade s)
{
    return os << (s == Shade::Light ? "light" : "dark");
}

enum Plain
{
    PlainZero,
    PlainSeven = 7,
};

#define EXPECT_CAT_MATCHES(...) \
    EXPECT_EQ(cat(__VA_ARGS__), streamed(__VA_ARGS__))

TEST(Logging, CatMatchesOstream)
{
    const std::string str = "a std::string";
    const std::string_view view = "a view";
    const char *ptr = "a pointer";
    char buf[] = "a buffer";

    // String-likes, characters and booleans.
    EXPECT_CAT_MATCHES("literal");
    EXPECT_CAT_MATCHES(str, view, ptr, buf);
    EXPECT_CAT_MATCHES(std::string());
    EXPECT_CAT_MATCHES('x', ' ', '\0', 'y');
    EXPECT_CAT_MATCHES(true, false);

    // Integers of every width and signedness, including the extremes.
    EXPECT_CAT_MATCHES(0, -1, 42, 1234567);
    EXPECT_CAT_MATCHES(std::numeric_limits<std::int64_t>::min(), " ",
                       std::numeric_limits<std::int64_t>::max());
    EXPECT_CAT_MATCHES(std::numeric_limits<std::uint64_t>::max());
    EXPECT_CAT_MATCHES(std::numeric_limits<std::int32_t>::min(), " ",
                       std::numeric_limits<std::uint32_t>::max());
    EXPECT_CAT_MATCHES(static_cast<short>(-300),
                       static_cast<unsigned short>(65535));
    EXPECT_CAT_MATCHES(std::size_t{12}, " ", std::ptrdiff_t{-12}, " ",
                       -5LL, " ", 5ULL, " ", -6L, " ", 6UL);

    // Character-typed integers print as characters.
    EXPECT_CAT_MATCHES(std::uint8_t{65}, std::int8_t{66});
    EXPECT_CAT_MATCHES(static_cast<unsigned char>('u'),
                       static_cast<signed char>('s'));

    // Manipulators carry over to the arguments after them.
    EXPECT_CAT_MATCHES("0x", std::hex, 255, " ", std::dec, 255);
    EXPECT_CAT_MATCHES("pc=0x", std::hex, std::uint32_t{0xdeadbeef},
                       " op ", 0x7f, ", line ", std::dec, 12);
    EXPECT_CAT_MATCHES(std::hex, std::numeric_limits<std::int64_t>::min());

    // Floating point, enums and mixtures of everything above.
    EXPECT_CAT_MATCHES(1.5, " ", 0.1, " ", 2.0f, " ", 1e300, " ", -0.0);
    EXPECT_CAT_MATCHES(Shade::Light, "/", Shade::Dark);
    EXPECT_CAT_MATCHES(PlainZero, " ", PlainSeven);
    EXPECT_CAT_MATCHES("line ", 3, ": ", str, " is ", 2.5, " wide, ",
                       std::uint8_t{'!'}, ' ', true);
    EXPECT_CAT_MATCHES("line ", 7, ": unexpected character '", '@', "'");
}

#undef EXPECT_CAT_MATCHES

} // namespace
} // namespace risc1

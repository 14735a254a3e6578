/**
 * JSON document model + parser (common/json_value.hh): round-trips
 * against the JsonWriter, schema conveniences, and hostile-input
 * behavior (the riscserved protocol parses untrusted payloads with
 * this parser, so malformed bytes must throw FatalError, never crash).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "common/random.hh"

using namespace risc1;

TEST(JsonValue, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").isNull());
    EXPECT_EQ(parseJson("true").asBool(), true);
    EXPECT_EQ(parseJson("false").asBool(), false);
    EXPECT_DOUBLE_EQ(parseJson("3.5").asDouble(), 3.5);
    EXPECT_EQ(parseJson("42").asU64(), 42u);
    EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseJson(" -7 ").asDouble(), -7.0);
}

TEST(JsonValue, ParsesContainers)
{
    const JsonValue v = parseJson(
        R"({"cmd":"create","mem":262144,"fast":true,)"
        R"("tags":[1,2,3],"nested":{"a":null}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.stringOr("cmd", ""), "create");
    EXPECT_EQ(v.u64Or("mem", 0), 262144u);
    EXPECT_TRUE(v.boolOr("fast", false));
    ASSERT_NE(v.find("tags"), nullptr);
    EXPECT_EQ(v.find("tags")->items().size(), 3u);
    EXPECT_TRUE(v.find("nested")->find("a")->isNull());
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonValue, SchemaFallbacksAndTypeErrors)
{
    const JsonValue v = parseJson(R"({"n":5,"s":"x"})");
    EXPECT_EQ(v.u64Or("missing", 9), 9u);
    EXPECT_EQ(v.stringOr("missing", "d"), "d");
    EXPECT_TRUE(v.boolOr("missing", true));
    // Present-but-wrong-type is an error, not a silent fallback.
    EXPECT_THROW(v.u64Or("s", 0), FatalError);
    EXPECT_THROW(v.stringOr("n", ""), FatalError);
}

TEST(JsonValue, U64RejectsNonIntegers)
{
    EXPECT_THROW(parseJson("-1").asU64(), FatalError);
    EXPECT_THROW(parseJson("1.5").asU64(), FatalError);
    EXPECT_THROW(parseJson("1e300").asU64(), FatalError);
    EXPECT_EQ(parseJson("9007199254740992").asU64(),
              9007199254740992ull); // 2^53 exactly is representable
}

TEST(JsonValue, StringEscapes)
{
    EXPECT_EQ(parseJson(R"("a\"b\\c\n\t")").asString(), "a\"b\\c\n\t");
    EXPECT_EQ(parseJson(R"("A")").asString(), "A");
}

TEST(JsonValue, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "riscserved")
        .field("count", std::uint64_t(123))
        .field("ratio", 0.25)
        .field("flag", true);
    w.key("list").beginArray().value("a").value("b").endArray();
    w.endObject();
    const JsonValue v = parseJson(w.str());
    EXPECT_EQ(v.stringOr("name", ""), "riscserved");
    EXPECT_EQ(v.u64Or("count", 0), 123u);
    EXPECT_TRUE(v.boolOr("flag", false));
    EXPECT_EQ(v.find("list")->items()[1].asString(), "b");
}

TEST(JsonValue, RepeatedKeyKeepsFirstPositionAndLastValue)
{
    // A repeated key merges the same way after one earlier key or
    // after many.
    for (const int filler : {0, 40}) {
        std::string text = R"({"a":1,"b":2)";
        for (int i = 0; i < filler; ++i)
            text += ",\"k" + std::to_string(i) + "\":0";
        text += R"(,"a":3,"\u0062":4})";
        const JsonValue v = parseJson(text);
        ASSERT_EQ(v.members().size(), 2u + filler) << filler;
        EXPECT_EQ(v.members()[0].first, "a");
        EXPECT_EQ(v.members()[0].second.asU64(), 3u);
        EXPECT_EQ(v.members()[1].first, "b");
        EXPECT_EQ(v.members()[1].second.asU64(), 4u);
    }
}

TEST(JsonValue, ParseTimeIsLinearInKeyCount)
{
    // 80,000 keys fit in one 1 MiB request frame.  Scanning every
    // earlier key for each new one took about 23 s on this input.
    std::string text = "{";
    for (int i = 0; i < 80000; ++i)
        text += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
    text += '}';
    ASSERT_LT(text.size(), 1u << 20);
    const auto start = std::chrono::steady_clock::now();
    const JsonValue v = parseJson(text);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_EQ(v.members().size(), 80000u);
    EXPECT_LT(took.count(), 2.0);
}

TEST(JsonValue, MalformedInputThrows)
{
    const char *bad[] = {
        "",          "{",         "}",          "[1,",
        "{\"a\":}",  "{\"a\" 1}", "tru",        "nul",
        "\"unterminated", "1.2.3", "{\"a\":1,}",
        "[1 2]",     "{'a':1}",   "\x01\x02",   "{\"a\":1}x",
    };
    for (const char *text : bad)
        EXPECT_THROW(parseJson(text), FatalError) << text;
}

TEST(JsonValue, DepthLimitHolds)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    for (int i = 0; i < 100; ++i)
        deep += ']';
    EXPECT_THROW(parseJson(deep, 64), FatalError);
    EXPECT_NO_THROW(parseJson(deep, 128));
}

TEST(JsonValue, FuzzNeverCrashes)
{
    // The parser's contract under arbitrary bytes: parse or throw
    // FatalError — never crash (run under ASan/UBSan in CI).
    Rng rng(0x1234567);
    const std::string alphabet =
        "{}[]\",:0123456789.eE+-truefalsnl\\u \t\n\x01\xff";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text;
        const std::size_t len = rng.below(64);
        for (std::size_t i = 0; i < len; ++i)
            text += alphabet[rng.below(alphabet.size())];
        try {
            (void)parseJson(text);
        } catch (const FatalError &) {
            // expected for most inputs
        }
    }
}

/**
 * @file
 * A minimal JSON document model and recursive-descent parser — the
 * read-side twin of json.hh's JsonWriter.
 *
 * Grown for the riscserved wire protocol (docs/SERVER.md): command
 * payloads arrive as JSON text over the socket, so the parser is
 * written to survive hostile input — depth-limited, allocation-bounded
 * by the input size, and throwing FatalError (never crashing) on any
 * malformed byte sequence.  Object keys keep insertion order, matching
 * the writer's determinism contract.
 */

#ifndef RISC1_COMMON_JSON_VALUE_HH
#define RISC1_COMMON_JSON_VALUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace risc1 {

/** One parsed JSON value (null, bool, number, string, array, object). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    /** A null; every other value comes from parseJson(). */
    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @throws FatalError when this value is not a bool. */
    bool asBool() const;

    /** @throws FatalError when this value is not a number. */
    double asDouble() const;

    /**
     * This number as an unsigned integer.  @throws FatalError when the
     * value is not a number, is negative, has a fractional part, or
     * exceeds 2^53 (the largest integer JSON's double transport can
     * carry exactly).
     */
    std::uint64_t asU64() const;

    /** @throws FatalError when this value is not a string. */
    const std::string &asString() const;

    /** @throws FatalError when this value is not an array. */
    const std::vector<JsonValue> &items() const;

    /** @throws FatalError when this value is not an object. */
    const std::vector<Member> &members() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    // -- Schema conveniences for command handlers ----------------------
    /** Member @p key as a string, or @p fallback when absent.
     *  @throws FatalError when present with the wrong type. */
    std::string stringOr(std::string_view key,
                         std::string_view fallback) const;

    /** Member @p key as an unsigned integer, or @p fallback. */
    std::uint64_t u64Or(std::string_view key, std::uint64_t fallback) const;

    /** Member @p key as a bool, or @p fallback. */
    bool boolOr(std::string_view key, bool fallback) const;

    /** Human-readable kind name ("object", "number", ...). */
    static std::string_view kindName(Kind kind);

  private:
    friend class JsonParser;

    explicit JsonValue(Kind kind) : kind_(kind) {}

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/**
 * Parse one complete JSON document from @p text (trailing
 * non-whitespace is an error).  A key repeated within an object keeps
 * its first position and takes its last value; parse time stays
 * linear in the number of keys.  @p maxDepth bounds container nesting so
 * adversarial input cannot exhaust the stack.  @throws FatalError with
 * a byte offset on malformed input.
 */
JsonValue parseJson(std::string_view text, unsigned maxDepth = 64);

} // namespace risc1

#endif // RISC1_COMMON_JSON_VALUE_HH

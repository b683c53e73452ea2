/**
 * @file
 * The JSON reader and the one JSON writer of the observability
 * artifacts.
 *
 * Every JSON document the repo emits -- alr_sim --json reports,
 * --profile, the timeline, metrics snapshots, alr_serve --json, diff
 * documents, BENCH_*.json -- is written through json::Writer, the only
 * code that escapes strings, formats numbers and lays out separators.
 * The reader is a strict DOM parser for the same artifacts, so
 * cross-run tooling (alr_diff, the in-process A/B harness) consumes
 * them without shelling out to python.  It is tuned for correctness,
 * not speed:
 *
 * - **Strict**: rejects everything RFC 8259 rejects -- trailing
 *   content, bad escapes, lone surrogates, raw control characters,
 *   leading zeros, bare fractions ("1." / ".5"), empty exponents,
 *   non-finite results -- plus duplicate object keys, which the RFC
 *   merely frowns at but which always indicate a corrupt artifact
 *   here.  Errors carry the byte offset.
 * - **Round-trippable**: parse() reads back everything Writer writes.
 *   Objects preserve insertion order; integers are written as integer
 *   literals and parse back as Int when they fit int64; doubles are
 *   printed with 17 significant digits (exact double round trip) and
 *   keep a ".0" when they would otherwise read back integral;
 *   non-finite doubles, which JSON cannot spell, are written as null.
 */

#ifndef ALR_COMMON_JSON_HH
#define ALR_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace alr::json {

class Value;

enum class Kind : uint8_t
{
    Null,
    Bool,
    Int,    ///< integer literal that fits int64
    Double, ///< any other number
    String,
    Array,
    Object,
};

/** Stable lowercase label ("null", "object", ...). */
const char *toString(Kind k);

/**
 * A parsed JSON value.  Plain tagged value type: copyable, movable,
 * equality-comparable (numeric equality across Int/Double so a double
 * that prints integral still compares equal after a round trip).
 * Numbers, strings and bools convert implicitly, so documents build as
 * `row.set("cycles", n).set("name", s)`.  Only an actual bool becomes
 * a Bool (a stray pointer does not compile), and an unsigned value
 * above INT64_MAX becomes a Double, as the parser reads it back.
 */
class Value
{
  public:
    Value() = default;
    template <typename T,
              std::enable_if_t<std::is_same_v<T, bool>, int> = 0>
    Value(T b) : _kind(Kind::Bool), _bool(b)
    {
    }
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Value(T i) : _kind(Kind::Int), _int(int64_t(i))
    {
        if (std::is_unsigned_v<T> && uint64_t(i) > uint64_t(INT64_MAX))
            *this = Value(double(i));
    }
    Value(double d) : _kind(Kind::Double), _double(d) {}
    Value(std::string s) : _kind(Kind::String), _string(std::move(s)) {}
    Value(const char *s) : Value(std::string(s)) {}

    static Value array() { Value v; v._kind = Kind::Array; return v; }
    static Value object() { Value v; v._kind = Kind::Object; return v; }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const
    {
        return _kind == Kind::Int || _kind == Kind::Double;
    }
    bool isInt() const { return _kind == Kind::Int; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    /** Typed accessors; the caller checks the kind first (ALR code
     *  style: these assert in debug, return zero values in release). */
    bool asBool() const { return _kind == Kind::Bool && _bool; }
    int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const { return _string; }

    const std::vector<Value> &elements() const { return _elements; }
    std::vector<Value> &elements() { return _elements; }
    void append(Value v) { _elements.push_back(std::move(v)); }

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return _objMembers;
    }

    /** Object lookup; nullptr when absent (or not an object). */
    const Value *find(std::string_view key) const;

    /** Append a member (no duplicate check; the parser enforces). */
    Value &set(std::string key, Value v);

    /** Convenience typed lookups with defaults. */
    int64_t intAt(std::string_view key, int64_t def = 0) const;
    double numberAt(std::string_view key, double def = 0.0) const;
    std::string stringAt(std::string_view key,
                         const std::string &def = {}) const;

    bool operator==(const Value &o) const;
    bool operator!=(const Value &o) const { return !(*this == o); }

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    int64_t _int = 0;
    double _double = 0.0;
    std::string _string;
    std::vector<Value> _elements;
    std::vector<std::pair<std::string, Value>> _objMembers;
};

/** Result of a parse: ok + value, or error text + byte offset. */
struct Parsed
{
    bool ok = false;
    Value value;
    std::string error;
    size_t offset = 0;

    explicit operator bool() const { return ok; }
};

/** Parse one complete JSON document (strict; see file comment). */
Parsed parse(std::string_view text);

/** Read and parse a file; on failure returns ok=false with the path
 *  prefixed to the error. */
Parsed parseFile(const std::string &path);

/**
 * Streaming JSON writer: the only code that escapes strings, formats
 * numbers and lays out separators.  It streams rather than building a
 * DOM, so a 2^18-event timeline is written without a copy.  A
 * multi-line container puts each element on its own line, indented two
 * spaces per level; an inline one keeps itself and everything nested
 * in it on one line ("{"a": 1, "b": [2, 3]}").  Numbers are written as
 * the file comment says.  The caller ending a document writes its
 * trailing newline.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : _os(os) {}

    Writer &beginObject(bool inlined = false)
    {
        return open('{', '}', inlined);
    }
    Writer &beginArray(bool inlined = false)
    {
        return open('[', ']', inlined);
    }
    /** Close the innermost open object or array. */
    Writer &end();
    /** The next member's key; its value follows. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view s);
    Writer &value(double d);
    /** An integer literal, or true/false for an actual bool; a pointer
     *  does not compile, so a string literal picks the string_view. */
    template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Writer &value(T i)
    {
        separate();
        if constexpr (std::is_same_v<T, bool>)
            _os << (i ? "true" : "false");
        else if constexpr (std::is_signed_v<T>)
            _os << int64_t(i);
        else
            _os << uint64_t(i);
        return *this;
    }
    template <typename T>
    Writer &member(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }
    /** A whole DOM value, every container multi-line (json::dump). */
    void write(const Value &v);

  private:
    struct Open
    {
        char close;
        bool inlined;
        bool empty;
    };

    Writer &open(char bracket, char close, bool inlined);
    /** Separator and indentation before the next key or value. */
    void separate();

    std::ostream &_os;
    std::vector<Open> _open;
    bool _afterKey = false;
};

/** Serialize with 2-space indentation (every container multi-line):
 *  parse(dump(v)) == v, and doubles keep their exact bit pattern. */
void dump(std::ostream &os, const Value &v);
std::string dump(const Value &v);

} // namespace alr::json

#endif // ALR_COMMON_JSON_HH

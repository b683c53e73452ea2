#include "common/json.hh"

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace alr::json {

namespace {

/** Nesting bound: deeper documents are rejected, not recursed into
 *  (the artifacts this repo emits nest ~4 levels). */
constexpr int kMaxDepth = 200;

struct Parser
{
    std::string_view text;
    size_t pos = 0;
    std::string error;
    size_t errorOffset = 0;

    bool fail(const std::string &msg)
    {
        if (error.empty()) {
            error = msg;
            errorOffset = pos;
        }
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    void skipWs()
    {
        while (!atEnd()) {
            char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    bool expect(char c, const char *what)
    {
        if (atEnd() || text[pos] != c)
            return fail(std::string("expected ") + what);
        ++pos;
        return true;
    }

    bool literal(std::string_view word, Value v, Value *out)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        *out = std::move(v);
        return true;
    }

    bool hex4(uint32_t *out)
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                return fail("truncated \\u escape");
            char c = text[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= uint32_t(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= uint32_t(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= uint32_t(c - 'A' + 10);
            else {
                --pos;
                return fail("bad hex digit in \\u escape");
            }
        }
        *out = v;
        return true;
    }

    void appendUtf8(std::string &s, uint32_t cp)
    {
        if (cp < 0x80) {
            s += char(cp);
        } else if (cp < 0x800) {
            s += char(0xC0 | (cp >> 6));
            s += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += char(0xE0 | (cp >> 12));
            s += char(0x80 | ((cp >> 6) & 0x3F));
            s += char(0x80 | (cp & 0x3F));
        } else {
            s += char(0xF0 | (cp >> 18));
            s += char(0x80 | ((cp >> 12) & 0x3F));
            s += char(0x80 | ((cp >> 6) & 0x3F));
            s += char(0x80 | (cp & 0x3F));
        }
    }

    bool parseString(std::string *out)
    {
        if (!expect('"', "string"))
            return false;
        std::string s;
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            unsigned char c = (unsigned char)text[pos];
            if (c == '"') {
                ++pos;
                break;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                s += char(c);
                ++pos;
                continue;
            }
            ++pos; // consume backslash
            if (atEnd())
                return fail("truncated escape");
            char e = text[pos++];
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                  uint32_t cp = 0;
                  if (!hex4(&cp))
                      return false;
                  if (cp >= 0xDC00 && cp <= 0xDFFF)
                      return fail("lone low surrogate");
                  if (cp >= 0xD800 && cp <= 0xDBFF) {
                      // High surrogate: the low half must follow.
                      if (text.substr(pos, 2) != "\\u")
                          return fail("lone high surrogate");
                      pos += 2;
                      uint32_t lo = 0;
                      if (!hex4(&lo))
                          return false;
                      if (lo < 0xDC00 || lo > 0xDFFF)
                          return fail("bad low surrogate");
                      cp = 0x10000 + ((cp - 0xD800) << 10) +
                           (lo - 0xDC00);
                  }
                  appendUtf8(s, cp);
                  break;
              }
              default:
                  pos -= 1;
                  return fail("unknown escape");
            }
        }
        *out = std::move(s);
        return true;
    }

    bool parseNumber(Value *out)
    {
        size_t start = pos;
        bool isInt = true;
        if (!atEnd() && text[pos] == '-')
            ++pos;
        if (atEnd() || text[pos] < '0' || text[pos] > '9')
            return fail("bad number");
        if (text[pos] == '0') {
            ++pos;
            if (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
                return fail("leading zero in number");
        } else {
            while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
                ++pos;
        }
        if (!atEnd() && text[pos] == '.') {
            isInt = false;
            ++pos;
            if (atEnd() || text[pos] < '0' || text[pos] > '9')
                return fail("bare fraction in number");
            while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
                ++pos;
        }
        if (!atEnd() && (text[pos] == 'e' || text[pos] == 'E')) {
            isInt = false;
            ++pos;
            if (!atEnd() && (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (atEnd() || text[pos] < '0' || text[pos] > '9')
                return fail("empty exponent");
            while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
                ++pos;
        }
        std::string token(text.substr(start, pos - start));
        if (isInt) {
            errno = 0;
            char *end = nullptr;
            long long v = std::strtoll(token.c_str(), &end, 10);
            if (errno != ERANGE && end && *end == '\0') {
                *out = Value(int64_t(v));
                return true;
            }
            // Magnitude beyond int64: fall through to double.
        }
        errno = 0;
        double d = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(d)) {
            pos = start;
            return fail("number out of range");
        }
        *out = Value(d);
        return true;
    }

    bool parseValue(Value *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("document nests too deep");
        skipWs();
        if (atEnd())
            return fail("unexpected end of input");
        char c = peek();
        switch (c) {
          case 'n': return literal("null", Value(), out);
          case 't': return literal("true", Value(true), out);
          case 'f': return literal("false", Value(false), out);
          case '"': {
              std::string s;
              if (!parseString(&s))
                  return false;
              *out = Value(std::move(s));
              return true;
          }
          case '[': {
              ++pos;
              Value arr = Value::array();
              skipWs();
              if (!atEnd() && peek() == ']') {
                  ++pos;
                  *out = std::move(arr);
                  return true;
              }
              while (true) {
                  Value elem;
                  if (!parseValue(&elem, depth + 1))
                      return false;
                  arr.append(std::move(elem));
                  skipWs();
                  if (atEnd())
                      return fail("unterminated array");
                  char d = text[pos];
                  if (d == ',') {
                      ++pos;
                      continue;
                  }
                  if (d == ']') {
                      ++pos;
                      break;
                  }
                  return fail("expected ',' or ']' in array");
              }
              *out = std::move(arr);
              return true;
          }
          case '{': {
              ++pos;
              Value obj = Value::object();
              skipWs();
              if (!atEnd() && peek() == '}') {
                  ++pos;
                  *out = std::move(obj);
                  return true;
              }
              while (true) {
                  skipWs();
                  std::string key;
                  if (!parseString(&key))
                      return false;
                  if (obj.find(key))
                      return fail("duplicate key \"" + key + "\"");
                  skipWs();
                  if (!expect(':', "':' after object key"))
                      return false;
                  Value member;
                  if (!parseValue(&member, depth + 1))
                      return false;
                  obj.set(std::move(key), std::move(member));
                  skipWs();
                  if (atEnd())
                      return fail("unterminated object");
                  char d = text[pos];
                  if (d == ',') {
                      ++pos;
                      continue;
                  }
                  if (d == '}') {
                      ++pos;
                      break;
                  }
                  return fail("expected ',' or '}' in object");
              }
              *out = std::move(obj);
              return true;
          }
          default:
              if (c == '-' || (c >= '0' && c <= '9'))
                  return parseNumber(out);
              return fail("unexpected character");
        }
    }
};

} // namespace

const char *
toString(Kind k)
{
    switch (k) {
      case Kind::Null:   return "null";
      case Kind::Bool:   return "bool";
      case Kind::Int:    return "int";
      case Kind::Double: return "double";
      case Kind::String: return "string";
      case Kind::Array:  return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

int64_t
Value::asInt() const
{
    if (_kind == Kind::Int)
        return _int;
    if (_kind == Kind::Double)
        return int64_t(_double);
    return 0;
}

double
Value::asDouble() const
{
    if (_kind == Kind::Int)
        return double(_int);
    if (_kind == Kind::Double)
        return _double;
    return 0.0;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : _objMembers)
        if (k == key)
            return &v;
    return nullptr;
}

Value &
Value::set(std::string key, Value v)
{
    assert(_kind == Kind::Object);
    _objMembers.emplace_back(std::move(key), std::move(v));
    return *this;
}

int64_t
Value::intAt(std::string_view key, int64_t def) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->asInt() : def;
}

double
Value::numberAt(std::string_view key, double def) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->asDouble() : def;
}

std::string
Value::stringAt(std::string_view key, const std::string &def) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->asString() : def;
}

bool
Value::operator==(const Value &o) const
{
    // Numbers compare numerically across Int/Double so round trips of
    // integral-printing doubles stay equal.
    if (isNumber() && o.isNumber()) {
        if (_kind == Kind::Int && o._kind == Kind::Int)
            return _int == o._int;
        return asDouble() == o.asDouble();
    }
    if (_kind != o._kind)
        return false;
    switch (_kind) {
      case Kind::Null:   return true;
      case Kind::Bool:   return _bool == o._bool;
      case Kind::String: return _string == o._string;
      case Kind::Array:  return _elements == o._elements;
      case Kind::Object: return _objMembers == o._objMembers;
      default:           return false; // unreachable (numbers above)
    }
}

Parsed
parse(std::string_view text)
{
    Parser p;
    p.text = text;
    Parsed out;
    if (!p.parseValue(&out.value, 0)) {
        out.error = p.error;
        out.offset = p.errorOffset;
        return out;
    }
    p.skipWs();
    if (!p.atEnd()) {
        out.error = "trailing content after document";
        out.offset = p.pos;
        out.value = Value();
        return out;
    }
    out.ok = true;
    return out;
}

Parsed
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        Parsed out;
        out.error = path + ": cannot open";
        return out;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    Parsed out = parse(text);
    if (!out.ok)
        out.error = path + ": offset " + std::to_string(out.offset) +
                    ": " + out.error;
    return out;
}

Writer &
Writer::open(char bracket, char close, bool inlined)
{
    separate();
    _os << bracket;
    _open.push_back(
        {close, inlined || (!_open.empty() && _open.back().inlined), true});
    return *this;
}

Writer &
Writer::end()
{
    assert(!_open.empty() && !_afterKey);
    Open c = _open.back();
    _open.pop_back();
    if (!c.empty && !c.inlined)
        _os << '\n' << std::string(2 * _open.size(), ' ');
    _os << c.close;
    return *this;
}

void
Writer::separate()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (_open.empty())
        return;
    Open &c = _open.back();
    if (!c.empty)
        _os << ',';
    if (!c.inlined)
        _os << '\n' << std::string(2 * _open.size(), ' ');
    else if (!c.empty)
        _os << ' ';
    c.empty = false;
}

Writer &
Writer::key(std::string_view k)
{
    assert(!_open.empty() && _open.back().close == '}' && !_afterKey);
    value(k);
    _os << ": ";
    _afterKey = true;
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    separate();
    _os << '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': _os << "\\\""; break;
          case '\\': _os << "\\\\"; break;
          case '\n': _os << "\\n"; break;
          case '\t': _os << "\\t"; break;
          case '\r': _os << "\\r"; break;
          case '\b': _os << "\\b"; break;
          case '\f': _os << "\\f"; break;
          default:
              if (c < 0x20) {
                  char buf[8];
                  std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                  _os << buf;
              } else {
                  _os << char(c);
              }
        }
    }
    _os << '"';
    return *this;
}

Writer &
Writer::value(double d)
{
    separate();
    if (!std::isfinite(d)) {
        _os << "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    _os << buf;
    // A double that prints integral would parse back as Int; the ".0"
    // suffix keeps the kind stable across a round trip.
    if (!std::strpbrk(buf, ".eE"))
        _os << ".0";
    return *this;
}

void
Writer::write(const Value &v)
{
    switch (v.kind()) {
      case Kind::Null:
          separate();
          _os << "null";
          break;
      case Kind::Bool:   value(v.asBool()); break;
      case Kind::Int:    value(v.asInt()); break;
      case Kind::Double: value(v.asDouble()); break;
      case Kind::String: value(v.asString()); break;
      case Kind::Array:
          beginArray();
          for (const Value &e : v.elements())
              write(e);
          end();
          break;
      case Kind::Object:
          beginObject();
          for (const auto &[k, m] : v.members())
              key(k).write(m);
          end();
          break;
    }
}

void
dump(std::ostream &os, const Value &v)
{
    Writer(os).write(v);
}

std::string
dump(const Value &v)
{
    std::ostringstream os;
    dump(os, v);
    return os.str();
}

} // namespace alr::json

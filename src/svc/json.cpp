#include "svc/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <unordered_set>

namespace rls::svc {

namespace {

class Parser {
 public:
  Parser(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  JsonObject object() {
    skip_ws();
    expect('{');
    JsonObject obj;
    // Linear duplicate detection: a line may carry up to --max-line-bytes
    // of fields, so comparing each key with every earlier one is not an
    // option.
    std::unordered_set<std::string> seen;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      for (;;) {
        skip_ws();
        std::string key = string();
        if (!seen.insert(key).second) {
          fail("duplicate field \"" + key + "\"");
        }
        skip_ws();
        expect(':');
        skip_ws();
        obj.emplace_back(std::move(key), value());
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') fail("expected ',' or '}' in object");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after object");
    return obj;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(origin_ + ": offset " + std::to_string(pos_) + ": " +
                    what);
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char want) {
    const char c = next();
    if (c != want) {
      fail(std::string("expected '") + want + "', got '" + c + "'");
    }
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The wire format only ever emits ASCII escapes; reject the
          // rest rather than mis-encode them.
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail(std::string("bad escape '\\") + esc + "'");
      }
    }
  }

  std::uint64_t uint_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a digit");
    std::uint64_t u = 0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, u);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      fail("unsigned integer out of range");
    }
    return u;
  }

  JsonValue value() {
    JsonValue v;
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.s = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      const std::string_view want = (c == 't') ? "true" : "false";
      if (text_.substr(pos_, want.size()) != want) fail("bad literal");
      pos_ += want.size();
      v.kind = JsonValue::Kind::kBool;
      v.b = (c == 't');
      return v;
    }
    if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        v.arr.push_back(uint_number());
        skip_ws();
        const char sep = next();
        if (sep == ']') return v;
        if (sep != ',') fail("expected ',' or ']' in array");
      }
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Integer first; promote to double only on '.', 'e' or 'E'.
      const std::size_t start = pos_;
      const std::uint64_t u = uint_number();
      if (pos_ < text_.size() &&
          (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
          ++pos_;
        }
        double d = 0.0;
        const auto [ptr, ec] =
            std::from_chars(text_.data() + start, text_.data() + pos_, d);
        if (ec != std::errc() || ptr != text_.data() + pos_) {
          fail("malformed number");
        }
        v.kind = JsonValue::Kind::kDouble;
        v.d = d;
        return v;
      }
      v.kind = JsonValue::Kind::kUint;
      v.u = u;
      return v;
    }
    fail(std::string("unexpected character '") + c +
         "' (negative numbers, null and nested objects are not part of the "
         "request schema)");
  }

  std::string_view text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonObject parse_json_object(std::string_view text,
                             const std::string& origin) {
  return Parser(text, origin).object();
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace rls::svc

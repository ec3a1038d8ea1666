#include "util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace mpiv::util {

namespace {

void escape(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

template <typename T>
void append_int(std::string& out, T v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void write(std::string& out, const Json& v, std::string& indent) {
  switch (v.kind) {
    case Json::Kind::kNull: out += "null"; return;
    case Json::Kind::kBool: out += v.boolean ? "true" : "false"; return;
    case Json::Kind::kInt: append_int(out, v.i); return;
    case Json::Kind::kUint: append_int(out, v.u); return;
    case Json::Kind::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", v.d);
      // JSON has no inf/nan.
      out += std::strpbrk(buf, "in") != nullptr ? "null" : buf;
      return;
    }
    case Json::Kind::kString: escape(out, v.str); return;
    case Json::Kind::kRaw:
      // escape() never leaves a newline inside a string, so every '\n' in
      // rendered text is layout.
      for (const char ch : v.str) {
        out += ch;
        if (ch == '\n') out += indent;
      }
      return;
    case Json::Kind::kArray:
    case Json::Kind::kObject: break;
  }
  const bool obj = v.kind == Json::Kind::kObject;
  const std::size_t n = obj ? v.members.size() : v.items.size();
  out += obj ? '{' : '[';
  const std::size_t outer = indent.size();
  if (v.block && n != 0) indent += "  ";
  for (std::size_t k = 0; k < n; ++k) {
    if (v.block) {
      out += k != 0 ? ",\n" : "\n";
      out += indent;
    } else if (k != 0) {
      out += ", ";
    }
    if (obj) {
      escape(out, v.members[k].first);
      out += ": ";
      write(out, v.members[k].second, indent);
    } else {
      write(out, v.items[k], indent);
    }
  }
  if (v.block && n != 0) {
    indent.resize(outer);
    out += '\n';
    out += indent;
  }
  out += obj ? '}' : ']';
}

/// Recursive-descent parser over the whole document: full JSON, not just
/// the subset the reports use, since mpiv_stat may be fed any file.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{': return container('{', '}');
      case '[': return container('[', ']');
      case '"': return Json(string());
      case 't':
      case 'f':
        if (consume("true")) return Json(true);
        if (consume("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (!consume("null")) fail("bad literal");
        return Json{};
      default: return number();
    }
  }

  Json container(char open, char close) {
    // Bounded recursion: a hostile file must not exhaust the stack.
    if (depth_ == kMaxDepth) fail("nesting deeper than 256 levels");
    ++depth_;
    const bool obj = open == '{';
    expect(open);
    Json v = obj ? Json::object() : Json::array();
    if (peek() == close) {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      if (obj) {
        if (peek() != '"') fail("expected member name");
        std::string name = string();
        expect(':');
        v.add(std::move(name), value());
      } else {
        v.push(value());
      }
      const char c = peek();
      ++pos_;
      if (c == close) break;
      if (c != ',') fail(std::string("expected ',' or '") + close + "'");
    }
    --depth_;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (pos_ + 4 > s_.size() ||
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, cp, 16)
                      .ptr != s_.data() + pos_ + 4) {
            fail("bad \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (report text is ASCII; this
          // keeps arbitrary inputs lossless enough for diffing).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
    return out;
  }

  /// Integers without fraction or exponent parse exactly; anything else,
  /// or an integer out of 64-bit range, parses as a double.
  Json number() {
    const auto in = [](char c, std::string_view set) {
      return set.find(c) != std::string_view::npos;
    };
    const std::size_t start = pos_;
    bool integral = true;
    while (pos_ < s_.size() && in(s_[pos_], "0123456789+-.eE")) {
      integral = integral && !in(s_[pos_], ".eE");
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + tok + "'");
    if (integral) {
      errno = 0;
      if (tok[0] == '-') {
        const long long v = std::strtoll(tok.c_str(), nullptr, 10);
        if (errno == 0) return Json(static_cast<std::int64_t>(v));
      } else {
        const unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
        if (errno == 0) return Json(static_cast<std::uint64_t>(v));
      }
    }
    return Json(d);
  }

  static constexpr int kMaxDepth = 256;
  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, child] : members) {
    if (name == key) return &child;
  }
  return nullptr;
}

double Json::number() const {
  switch (kind) {
    case Kind::kInt: return static_cast<double>(i);
    case Kind::kUint: return static_cast<double>(u);
    case Kind::kDouble: return d;
    default: return 0;
  }
}

std::string write_json(const Json& v) {
  std::string out;
  std::string indent;
  write(out, v, indent);
  return out;
}

Json parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace mpiv::util

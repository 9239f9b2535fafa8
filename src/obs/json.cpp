#include "obs/json.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>

namespace easched::obs {
namespace {

/// Deeper documents are rejected rather than recursed into: every writer
/// in the repo nests at most four levels.
constexpr std::size_t kMaxDepth = 256;

class Reader {
 public:
  Reader(std::string_view text, const JsonVisitor& visit)
      : text_(text), visit_(visit) {}

  bool run(std::string* error) {
    skip_ws();
    bool ok = value(0, 0);
    if (ok) {
      skip_ws();
      if (pos_ != text_.size()) ok = fail("trailing data after document");
    }
    if (!ok && !stopped_ && error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool emit(JsonNode& node, std::size_t depth, std::size_t key_at) {
    node.depth = depth;
    node.path = path_;
    node.key = std::string_view(path_).substr(key_at);
    if (visit_(node)) return true;
    stopped_ = true;
    return false;
  }

  /// Reads the value at pos_, whose path is path_ and whose key segment
  /// starts at path_[key_at].
  bool value(std::size_t depth, std::size_t key_at) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    JsonNode node;
    switch (peek()) {
      case '{':
      case '[':
        return container(depth, key_at);
      case '"':
        str_.clear();
        if (!string(str_)) return false;
        node.type = JsonType::kString;
        node.text = str_;
        break;
      case 't':
      case 'f':
        node.type = JsonType::kBool;
        node.number = peek() == 't' ? 1 : 0;
        if (!literal(peek() == 't' ? "true" : "false")) return false;
        break;
      case 'n':
        if (!literal("null")) return false;
        break;
      default:
        node.type = JsonType::kNumber;
        if (!number(node.number)) return false;
    }
    return emit(node, depth, key_at);
  }

  bool container(std::size_t depth, std::size_t key_at) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    const bool object = text_[pos_++] == '{';
    const char closer = object ? '}' : ']';
    JsonNode node;
    node.type = object ? JsonType::kObject : JsonType::kArray;
    if (!emit(node, depth, key_at)) return false;
    const std::size_t len = path_.size();
    if (!consume(closer)) {
      for (std::size_t index = 0;; ++index) {
        if (depth > 0) path_ += '.';
        const std::size_t child_key_at = path_.size();
        if (object) {
          skip_ws();
          if (peek() != '"') return fail("expected string key");
          if (!string(path_)) return false;
          if (!consume(':')) return fail("expected ':'");
        } else {
          path_ += std::to_string(index);
        }
        if (!value(depth + 1, child_key_at)) return false;
        path_.resize(len);
        if (consume(',')) continue;
        if (consume(closer)) break;
        return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
      }
    }
    node.close = true;
    return emit(node, depth, key_at);
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (peek() != *p) return fail("bad literal");
    }
    return true;
  }

  std::size_t digits() {
    const std::size_t start = pos_;
    while (peek() >= '0' && peek() <= '9') ++pos_;
    return pos_ - start;
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (digits() == 0) {
      return fail(pos_ == start ? "expected a value" : "bad number");
    }
    if (peek() == '.') {
      ++pos_;
      if (digits() == 0) return fail("bad fraction");
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (digits() == 0) return fail("bad exponent");
    }
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (res.ec != std::errc()) return fail("number out of range");
    return true;
  }

  bool hex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const char c = peek();
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// Reads the string at pos_ (an opening quote), appending it decoded.
  bool string(std::string& out) {
    ++pos_;
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
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
          if (!hex4(cp)) return false;
          // A surrogate pair encodes one code point above U+FFFF; a lone
          // surrogate is kept as is.
          if (cp >= 0xD800 && cp < 0xDC00 &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned low = 0;
            if (!hex4(low)) return false;
            if (low >= 0xDC00 && low < 0xE000) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else {
              append_utf8(out, cp);
              cp = low;
            }
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  std::string_view text_;
  const JsonVisitor& visit_;
  std::size_t pos_ = 0;
  std::string path_;
  std::string str_;
  std::string error_;
  bool stopped_ = false;
};

}  // namespace

bool read_json(std::string_view text, const JsonVisitor& visit,
               std::string* error) {
  return Reader(text, visit).run(error);
}

void write_json_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace easched::obs

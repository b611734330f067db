#include "src/support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/support/strings.h"

namespace flexrpc {

// --- writer -------------------------------------------------------------

void JsonWriter::Indent() {
  out_.push_back('\n');
  out_.append(scopes_.size() * 2, ' ');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (scopes_.empty()) {
    return;
  }
  if (scope_has_items_.back()) {
    out_.push_back(',');
  }
  scope_has_items_.back() = true;
  Indent();
}

void JsonWriter::AppendEscaped(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  scopes_.push_back(true);
  scope_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  bool had_items = scope_has_items_.back();
  scopes_.pop_back();
  scope_has_items_.pop_back();
  if (had_items) {
    Indent();
  }
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  scopes_.push_back(false);
  scope_has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  bool had_items = scope_has_items_.back();
  scopes_.pop_back();
  scope_has_items_.pop_back();
  if (had_items) {
    Indent();
  }
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (scope_has_items_.back()) {
    out_.push_back(',');
  }
  scope_has_items_.back() = true;
  Indent();
  AppendEscaped(key);
  out_ += ": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendEscaped(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "0";
    return *this;
  }
  // Shortest representation that round-trips well enough for timings.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::RawNumber(std::string_view literal) {
  BeforeValue();
  out_ += literal;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

// --- parser -------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::optional<uint64_t> JsonValue::AsUInt(uint64_t max) const {
  // 2^64 is exactly representable; every integral double below it
  // converts to uint64_t without loss. NaN fails the first comparison.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (kind != Kind::kNumber || !(number >= 0) || number >= kTwoTo64 ||
      std::floor(number) != number) {
    return std::nullopt;
  }
  uint64_t value = static_cast<uint64_t>(number);
  if (value > max) {
    return std::nullopt;
  }
  return value;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    FLEXRPC_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const char* what) const {
    return InvalidArgumentError(
        StrFormat("json: %s at offset %zu", what, pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonNesting) {
        return Error("arrays and objects nest too deeply");
      }
      ++depth_;
      Result<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      FLEXRPC_ASSIGN_OR_RETURN(v.string, ParseString());
      return v;
    }
    JsonValue v;
    if (ConsumeWord("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (ConsumeWord("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
      return v;
    }
    if (ConsumeWord("null")) {
      v.kind = JsonValue::Kind::kNull;
      return v;
    }
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // The emitter only escapes control characters; decode the BMP
          // subset as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) {
      return Error("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  Result<JsonValue> ParseObject() {
    Consume('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) {
      return v;
    }
    while (true) {
      SkipSpace();
      FLEXRPC_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      FLEXRPC_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      v.object.emplace_back(std::move(key), std::move(member));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return v;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    Consume('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) {
      return v;
    }
    while (true) {
      FLEXRPC_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      v.array.push_back(std::move(item));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return v;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace flexrpc

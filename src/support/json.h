// Minimal JSON support for the flextrace observability layer.
//
// The writer produces the BENCH_<name>.json artifacts (and TraceSession
// snapshots); the parser reads them back in the budget gate
// (tools/flextrace) and in tests. It intentionally covers only the JSON
// subset the emitter produces — objects, arrays, strings, numbers,
// booleans, null — with no streaming, comments, or NaN/Inf extensions.

#ifndef FLEXRPC_SRC_SUPPORT_JSON_H_
#define FLEXRPC_SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace flexrpc {

// Streaming writer with bracket bookkeeping and comma insertion. Output is
// pretty-printed (two-space indent) so the artifacts diff well in review.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Must be called before each value inside an object scope.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  // Emits a pre-formatted numeric literal verbatim. For values that need
  // exact decimal control (e.g. nanosecond timestamps rendered as
  // microseconds) where Double's %.9g would lose precision. The caller
  // must pass a valid JSON number.
  JsonWriter& RawNumber(std::string_view literal);

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();
  void Indent();
  void AppendEscaped(std::string_view s);

  std::string out_;
  // One entry per open scope: true = object, false = array.
  std::vector<bool> scopes_;
  std::vector<bool> scope_has_items_;
  bool pending_key_ = false;
};

// Parsed JSON tree.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order
  std::vector<JsonValue> array;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // The number as an integer field no larger than `max`; nullopt unless it
  // is finite, integral, non-negative, and at most `max`. Readers of
  // integer fields use this instead of casting `number`, which is UB (or a
  // silent wrap) for negative, fractional, or out-of-range input.
  std::optional<uint64_t> AsUInt(uint64_t max = UINT64_MAX) const;
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsObject() const { return kind == Kind::kObject; }
};

// Deepest array/object nesting ParseJson accepts (a top-level `[]` is one
// level). The parser recurses once per level; one more level is
// InvalidArgument rather than a deeper stack.
inline constexpr int kMaxJsonNesting = 256;

// Parses a complete JSON document (trailing whitespace allowed).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_JSON_H_

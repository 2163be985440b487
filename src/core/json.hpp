// Minimal JSON: a streaming writer, one strict pull reader, and a small
// DOM built through that reader.
//
// The measurement tools emit machine-readable reports (the real CenTrace /
// CenFuzz / CenProbe write JSON lines); JsonWriter produces compact,
// correctly escaped JSON without a DOM. Scopes are validated: mismatched
// end_*() or a value without a pending key inside an object throw.
// JsonReader is the only grammar: json_valid, json_parse and the report
// and config decoders (report/wire.hpp) all read through it.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cen {

std::string json_escape(std::string_view s);
/// Append json_escape(s) to `out` without building a temporary.
void json_escape_into(std::string& out, std::string_view s);

/// Strict UTF-8 well-formedness check (rejects overlong forms, surrogate
/// code points and sequences beyond U+10FFFF). Everything json_escape
/// emits and json_parse decodes satisfies this.
bool utf8_valid(std::string_view s);

/// Strict syntax validation of one JSON document (JsonReader's grammar:
/// skip one value, then expect the end of input). Used by tests to
/// certify everything the report serializers and CLIs emit.
bool json_valid(std::string_view text);

/// A decoded JSON number as an integer of type Int: truncated toward zero
/// and clamped to Int's range. A plain cast of an out-of-range double is
/// undefined behaviour, and hostile documents can carry any number.
template <typename Int>
Int saturate_cast(double d) {
  constexpr Int lo = std::numeric_limits<Int>::min();
  constexpr Int hi = std::numeric_limits<Int>::max();
  if (!(d > static_cast<double>(lo))) return lo;
  if (d >= static_cast<double>(hi)) return hi;
  return static_cast<Int>(d);
}

/// How numbers cross the wire. kRounded is the report format: doubles are
/// written with six significant digits and unsigned 64-bit integers are
/// read through double. kExact is the config format: each double is
/// written in the shortest form that reads back to it, and an unsigned
/// 64-bit integer token is read digit for digit, so a spec reloads to
/// itself.
enum class JsonNumbers : std::uint8_t { kRounded, kExact };

/// Parsed JSON document node. Objects keep their members in source order
/// (the canonical-key-order tests and the campaign cache depend on it);
/// lookups are linear, which is fine for the small documents the tools
/// exchange.
class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<Member> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parse one strict JSON document (same grammar json_valid accepts).
/// Returns nullptr on any syntax error or trailing content.
std::unique_ptr<JsonValue> json_parse(std::string_view text);

/// Strict pull reader over one JSON text, decoding in a single pass with
/// no DOM. It accepts exactly RFC 8259 with nesting bounded at 64
/// containers, strict UTF-8 in strings, \u surrogates only as pairs and,
/// checked by finish(), no trailing content.
///
/// Every read consumes exactly one value. A typed read of a value of
/// another type validates and skips it, leaves `out` alone and returns
/// false. A syntax error, or fail(), is sticky: every later call returns
/// false, so a decoder checks once, at finish().
class JsonReader {
 public:
  explicit JsonReader(std::string_view text, JsonNumbers numbers = JsonNumbers::kRounded)
      : text_(text), numbers_(numbers) {}

  /// The type of the next value, judged by its first byte. Anything that
  /// starts no value, the end of the text included, reads as a number,
  /// which then fails.
  JsonValue::Type peek();

  /// Escape-free strings are slices of the input; an escaped one is
  /// decoded into scratch storage that the next string read reuses.
  bool read_string(std::string_view& out);
  bool read_number(double& out);
  /// Any number, saturated to the range as saturate_cast does. Under
  /// kExact an integer token that fits is read exactly.
  bool read_number(std::uint64_t& out);
  bool read_bool(bool& out);
  bool read_null();
  /// Validate and skip one value.
  bool skip();
  /// The same, setting `raw` to the value's exact bytes (no whitespace
  /// around them), a slice of the input.
  bool skip(std::string_view& raw);

  /// Read an object, calling `on_member(key)` with the reader at each
  /// member's value. A callback that reads nothing has the value skipped
  /// for it. `key` follows read_string's rules, with its own scratch
  /// storage reused by the next key. Returns false when the value is not
  /// an object (it is skipped) or on error.
  template <typename OnMember>
  bool object(OnMember&& on_member);
  /// Read an array, calling `on_element()` at each element; same rules.
  template <typename OnElement>
  bool array(OnElement&& on_element);

  /// Reject the text for a caller's own reason (an unknown enum name, say).
  /// The first failure's reason is the one kept.
  void fail(std::string_view why = {});
  /// Name the member whose value failed the text for a reason: nested
  /// members read "outer.inner: reason".
  void blame(std::string_view key);
  /// The reason the text was rejected, prefixed by the path of the member
  /// that gave it; empty when nothing failed for a reason (a syntax error,
  /// say).
  const std::string& why() const { return why_; }
  /// True when everything read was well formed and only whitespace is left.
  bool finish();

 private:
  /// Whether the next value has `type`; a value of another type is skipped.
  bool expect(JsonValue::Type type);
  bool error();
  void skip_ws();
  bool open(char bracket);
  bool close_if(char bracket);
  bool more(char bracket);
  bool key(std::string_view& out);
  bool string_token(std::string_view* out, std::string& scratch);
  bool escape(std::string* out);
  bool number_token();
  /// The double the number token at text_[start, pos_) spells.
  double number_value(std::size_t start) const;
  bool literal(std::string_view word);

  std::string_view text_;
  JsonNumbers numbers_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  bool blamed_ = false;
  std::string why_;
  std::string key_scratch_;
  std::string value_scratch_;
};

template <typename OnMember>
bool JsonReader::object(OnMember&& on_member) {
  if (!open('{')) return false;
  if (close_if('}')) return true;
  do {
    std::string_view name;
    if (!key(name)) return false;
    const std::size_t at = pos_;
    on_member(name);
    if (failed_ || (pos_ == at && !skip())) return false;
  } while (more('}'));
  return !failed_;
}

template <typename OnElement>
bool JsonReader::array(OnElement&& on_element) {
  if (!open('[')) return false;
  if (close_if(']')) return true;
  do {
    skip_ws();
    const std::size_t at = pos_;
    on_element();
    if (failed_ || (pos_ == at && !skip())) return false;
  } while (more(']'));
  return !failed_;
}

class JsonWriter {
 public:
  explicit JsonWriter(JsonNumbers numbers = JsonNumbers::kRounded) : numbers_(numbers) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key inside an object; must be followed by exactly one value/scope.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  /// Digits as JsonNumbers says; a value that is not finite writes null.
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// Splice a pre-serialized JSON document in value position (e.g. a
  /// sub-report rendered by another writer). The caller vouches for its
  /// validity; scope/comma handling is still enforced here.
  JsonWriter& raw_value(std::string_view json);

  /// The finished document; throws if scopes are still open.
  std::string str() const&;
  /// The same, moved out of a writer that is done with it.
  std::string str() &&;

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void pre_value();
  void open(Scope s, char c);
  void close(Scope s, char c);

  JsonNumbers numbers_;
  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
};

}  // namespace cen

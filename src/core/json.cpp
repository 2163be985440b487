#include "core/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cen {

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when the
/// bytes at i do not start one (overlong forms, surrogate code points and
/// anything beyond U+10FFFF included). ASCII returns 1.
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const unsigned char b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  auto byte = [&](std::size_t k) -> int {
    return i + k < s.size() ? static_cast<unsigned char>(s[i + k]) : -1;
  };
  auto cont = [](int b) { return b >= 0x80 && b <= 0xbf; };
  const int b1 = byte(1);
  if (b0 >= 0xc2 && b0 <= 0xdf) return cont(b1) ? 2 : 0;
  if (b0 >= 0xe0 && b0 <= 0xef) {
    const int lo = b0 == 0xe0 ? 0xa0 : 0x80;  // no overlong 3-byte forms
    const int hi = b0 == 0xed ? 0x9f : 0xbf;  // no encoded surrogates
    return b1 >= lo && b1 <= hi && cont(byte(2)) ? 3 : 0;
  }
  if (b0 >= 0xf0 && b0 <= 0xf4) {
    const int lo = b0 == 0xf0 ? 0x90 : 0x80;  // no overlong 4-byte forms
    const int hi = b0 == 0xf4 ? 0x8f : 0xbf;  // cap at U+10FFFF
    return b1 >= lo && b1 <= hi && cont(byte(2)) && cont(byte(3)) ? 4 : 0;
  }
  return 0;  // bare continuation byte or invalid lead (0x80-0xc1, 0xf5-0xff)
}

/// Decode four hex digits at t[p..p+3]; -1 on bounds or non-hex.
int hex4(std::string_view t, std::size_t p) {
  int v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (p + i >= t.size()) return -1;
    const char h = t[p + i];
    if (!std::isxdigit(static_cast<unsigned char>(h))) return -1;
    v = v * 16 + (h <= '9' ? h - '0' : (std::tolower(h) - 'a' + 10));
  }
  return v;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

}  // namespace

bool utf8_valid(std::string_view s) {
  for (std::size_t i = 0; i < s.size();) {
    const std::size_t len = utf8_sequence_length(s, i);
    if (len == 0) return false;
    i += len;
  }
  return true;
}

void json_escape_into(std::string& out, std::string_view s) {
  // Bytes that need no escaping are copied in runs, not one at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    const char* escaped = nullptr;
    switch (c) {
      case '"': escaped = "\\\""; break;
      case '\\': escaped = "\\\\"; break;
      case '\b': escaped = "\\b"; break;
      case '\f': escaped = "\\f"; break;
      case '\n': escaped = "\\n"; break;
      case '\r': escaped = "\\r"; break;
      case '\t': escaped = "\\t"; break;
      default: break;
    }
    if (escaped == nullptr && c >= 0x20 && c != 0x7f) {
      if (c < 0x80) {
        ++i;
        continue;
      }
      const std::size_t len = utf8_sequence_length(s, i);
      if (len > 0) {
        i += len;
        continue;
      }
      // Invalid UTF-8 must not leak into a JSON document (RFC 8259 §8.1);
      // substitute U+FFFD, one replacement per rejected byte.
      escaped = "\xef\xbf\xbd";
    }
    out.append(s.data() + run, i - run);
    if (escaped != nullptr) {
      out += escaped;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    }
    run = ++i;
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape_into(out, s);
  return out;
}

JsonValue::Type JsonReader::peek() {
  skip_ws();
  if (pos_ >= text_.size()) return JsonValue::Type::kNumber;
  switch (text_[pos_]) {
    case '{': return JsonValue::Type::kObject;
    case '[': return JsonValue::Type::kArray;
    case '"': return JsonValue::Type::kString;
    case 't':
    case 'f': return JsonValue::Type::kBool;
    case 'n': return JsonValue::Type::kNull;
    default: return JsonValue::Type::kNumber;
  }
}

bool JsonReader::read_string(std::string_view& out) {
  return expect(JsonValue::Type::kString) && string_token(&out, value_scratch_);
}

bool JsonReader::read_number(double& out) {
  if (!expect(JsonValue::Type::kNumber)) return false;
  const std::size_t start = pos_;
  if (!number_token()) return false;
  out = number_value(start);
  return true;
}

bool JsonReader::read_number(std::uint64_t& out) {
  if (!expect(JsonValue::Type::kNumber)) return false;
  const std::size_t start = pos_;
  if (!number_token()) return false;
  if (numbers_ == JsonNumbers::kExact) {
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(text_.data() + start, last, out);
    if (ec == std::errc() && end == last) return true;
  }
  out = saturate_cast<std::uint64_t>(number_value(start));
  return true;
}

double JsonReader::number_value(std::size_t start) const {
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double out = 0;
  if (std::from_chars(first, last, out).ec != std::errc()) {
    // Out of double's range: strtod's ±HUGE_VAL or underflowed value.
    out = std::strtod(std::string(first, last).c_str(), nullptr);
  }
  return out;
}

bool JsonReader::read_bool(bool& out) {
  if (!expect(JsonValue::Type::kBool)) return false;
  out = text_[pos_] == 't';
  return literal(out ? "true" : "false");
}

bool JsonReader::read_null() {
  return expect(JsonValue::Type::kNull) && literal("null");
}

bool JsonReader::skip() {
  if (failed_) return false;
  skip_ws();
  switch (pos_ < text_.size() ? text_[pos_] : '\0') {
    case '{': return object([](std::string_view) {});
    case '[': return array([] {});
    case '"': return string_token(nullptr, value_scratch_);
    case 't': return literal("true");
    case 'f': return literal("false");
    case 'n': return literal("null");
    default: return number_token();
  }
}

bool JsonReader::skip(std::string_view& raw) {
  skip_ws();
  const std::size_t start = pos_;
  if (!skip()) return false;
  raw = text_.substr(start, pos_ - start);
  return true;
}

void JsonReader::fail(std::string_view why) {
  if (!failed_) why_ = why;
  failed_ = true;
}

void JsonReader::blame(std::string_view key) {
  if (!failed_ || why_.empty()) return;
  why_.insert(0, std::string(key) + (blamed_ ? "." : ": "));
  blamed_ = true;
}

bool JsonReader::finish() {
  skip_ws();
  return !failed_ && pos_ == text_.size();
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonReader::expect(JsonValue::Type type) {
  if (failed_) return false;
  if (peek() == type) return true;
  skip();
  return false;
}

bool JsonReader::error() {
  failed_ = true;
  return false;
}

bool JsonReader::open(char bracket) {
  if (!expect(bracket == '{' ? JsonValue::Type::kObject : JsonValue::Type::kArray)) {
    return false;
  }
  // depth_ counts the brackets already open, so the 65th nested container
  // is the first one rejected. Scalars do not nest: one at depth 64 is as
  // legal as the empty container there.
  if (depth_ >= 64) return error();
  ++depth_;
  ++pos_;
  return true;
}

bool JsonReader::close_if(char bracket) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != bracket) return false;
  ++pos_;
  --depth_;
  return true;
}

bool JsonReader::more(char bracket) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == ',') {
    ++pos_;
    return true;
  }
  return close_if(bracket) ? false : error();
}

bool JsonReader::key(std::string_view& out) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != '"') return error();
  if (!string_token(&out, key_scratch_)) return false;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != ':') return error();
  ++pos_;
  skip_ws();
  return true;
}

bool JsonReader::string_token(std::string_view* out, std::string& scratch) {
  const std::size_t start = pos_ + 1;  // past the opening quote
  const std::size_t size = text_.size();
  std::size_t i = start;
  bool decoding = false;  // set at the first escape when the text is wanted
  while (i < size) {
    // Printable ASCII other than '"' and '\\' stands for itself.
    const std::size_t run = i;
    while (i < size && static_cast<unsigned char>(text_[i] - 0x20) < 0x60 && text_[i] != '"' &&
           text_[i] != '\\') {
      ++i;
    }
    if (decoding) scratch.append(text_.data() + run, i - run);
    if (i >= size) break;
    const unsigned char c = static_cast<unsigned char>(text_[i]);
    if (c == '"') {
      if (out != nullptr) {
        *out = decoding ? std::string_view(scratch)
                        : std::string_view(text_.data() + start, i - start);
      }
      pos_ = i + 1;
      return true;
    }
    if (c < 0x20) break;  // raw control character
    if (c == '\\') {
      if (out != nullptr && !decoding) {
        scratch.assign(text_.data() + start, i - start);
        decoding = true;
      }
      pos_ = i;
      if (!escape(decoding ? &scratch : nullptr)) break;
      i = pos_;
      continue;
    }
    const std::size_t len = c < 0x80 ? 1 : utf8_sequence_length(text_, i);
    if (len == 0) break;  // raw invalid UTF-8
    if (decoding) scratch.append(text_.data() + i, len);
    i += len;
  }
  return error();  // unterminated or malformed
}

bool JsonReader::escape(std::string* out) {
  ++pos_;  // backslash
  if (pos_ >= text_.size()) return false;
  const char esc = text_[pos_++];
  if (esc != 'u') {
    static constexpr std::string_view kFrom = "\"\\/bfnrt", kTo = "\"\\/\b\f\n\r\t";
    const std::size_t i = kFrom.find(esc);
    if (i == std::string_view::npos) return false;
    if (out != nullptr) *out += kTo[i];
    return true;
  }
  const int unit = hex4(text_, pos_);
  if (unit < 0 || (unit >= 0xdc00 && unit <= 0xdfff)) return false;  // lone low surrogate
  pos_ += 4;
  std::uint32_t cp = static_cast<std::uint32_t>(unit);
  if (cp >= 0xd800 && cp <= 0xdbff) {
    // A high surrogate must be followed by an escaped low one (RFC 8259
    // §7); the pair decodes to one code point, so the text is UTF-8, not
    // CESU-8.
    if (text_.substr(pos_, 2) != "\\u") return false;
    const int low = hex4(text_, pos_ + 2);
    if (low < 0xdc00 || low > 0xdfff) return false;
    pos_ += 6;
    cp = 0x10000 + ((cp - 0xd800) << 10) + (static_cast<std::uint32_t>(low) - 0xdc00);
  }
  if (out != nullptr) append_utf8(*out, cp);
  return true;
}

bool JsonReader::number_token() {
  std::size_t i = pos_;
  auto digit = [&] { return i < text_.size() && text_[i] >= '0' && text_[i] <= '9'; };
  auto digits = [&] {
    if (!digit()) return false;
    while (digit()) ++i;
    return true;
  };
  if (i < text_.size() && text_[i] == '-') ++i;
  // RFC 8259 int: "0" or a nonzero digit followed by digits (no leading 0s).
  bool ok = digit();
  if (ok && text_[i] == '0') {
    ++i;
    ok = !digit();
  } else if (ok) {
    digits();
  }
  if (ok && i < text_.size() && text_[i] == '.') {
    ++i;
    ok = digits();
  }
  if (ok && i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
    ++i;
    if (i < text_.size() && (text_[i] == '+' || text_[i] == '-')) ++i;
    ok = digits();
  }
  pos_ = i;
  return ok || error();
}

bool JsonReader::literal(std::string_view word) {
  if (text_.size() - pos_ < word.size() ||
      std::memcmp(text_.data() + pos_, word.data(), word.size()) != 0) {
    return error();
  }
  pos_ += word.size();
  return true;
}

namespace {

/// Build the DOM for the next value.
bool build(JsonReader& in, JsonValue& out) {
  switch (out.type = in.peek()) {
    case JsonValue::Type::kObject:
      return in.object([&](std::string_view key) {
        out.object.emplace_back(std::string(key), JsonValue());
        build(in, out.object.back().second);
      });
    case JsonValue::Type::kArray:
      return in.array([&] { build(in, out.array.emplace_back()); });
    case JsonValue::Type::kString: {
      std::string_view s;
      if (!in.read_string(s)) return false;
      out.string = s;
      return true;
    }
    case JsonValue::Type::kNumber: return in.read_number(out.number);
    case JsonValue::Type::kBool: return in.read_bool(out.boolean);
    case JsonValue::Type::kNull: return in.read_null();
  }
  return false;
}

}  // namespace

bool json_valid(std::string_view text) {
  JsonReader in(text);
  return in.skip() && in.finish();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const Member& m : object) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

std::unique_ptr<JsonValue> json_parse(std::string_view text) {
  auto out = std::make_unique<JsonValue>();
  JsonReader in(text);
  if (!build(in, *out) || !in.finish()) return nullptr;
  return out;
}

namespace {

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::pre_value() {
  if (stack_.empty()) {
    if (!out_.empty()) throw std::logic_error("multiple top-level JSON values");
    return;
  }
  if (stack_.back() == Scope::kObject && !key_pending_) {
    throw std::logic_error("JSON value inside object without a key");
  }
  if (stack_.back() == Scope::kArray && has_items_.back()) out_ += ',';
  has_items_.back() = true;
  key_pending_ = false;
}

void JsonWriter::open(Scope s, char c) {
  pre_value();
  out_ += c;
  stack_.push_back(s);
  has_items_.push_back(false);
}

void JsonWriter::close(Scope s, char c) {
  if (stack_.empty() || stack_.back() != s || key_pending_) {
    throw std::logic_error("mismatched JSON scope close");
  }
  stack_.pop_back();
  has_items_.pop_back();
  out_ += c;
}

JsonWriter& JsonWriter::begin_object() {
  open(Scope::kObject, '{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close(Scope::kObject, '}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open(Scope::kArray, '[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(Scope::kArray, ']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Scope::kObject || key_pending_) {
    throw std::logic_error("JSON key outside object");
  }
  if (has_items_.back()) out_ += ',';
  out_ += '"';
  json_escape_into(out_, k);
  out_ += "\":";
  key_pending_ = true;
  has_items_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  out_ += '"';
  json_escape_into(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  append_integer(out_, v);
  return *this;
}


JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  int precision = 6;
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  while (numbers_ == JsonNumbers::kExact && precision < 17 && std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.*g", ++precision, v);
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  pre_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw_value(std::string_view json) {
  pre_value();
  out_ += json;
  return *this;
}

std::string JsonWriter::str() const& {
  if (!stack_.empty()) throw std::logic_error("unterminated JSON scopes");
  return out_;
}

std::string JsonWriter::str() && {
  if (!stack_.empty()) throw std::logic_error("unterminated JSON scopes");
  return std::move(out_);
}

}  // namespace cen

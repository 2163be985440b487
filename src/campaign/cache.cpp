#include "campaign/cache.hpp"

#include <cstdio>
#include <optional>

#include "core/fingerprint.hpp"
#include "core/json.hpp"

namespace cen::campaign {

namespace {

void append_hex64(std::string& out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(v >> shift) & 0xf]);
  }
}

/// The text a JSON string token denotes, or nullopt when `token` (a value
/// span from a validated line, possibly with trailing whitespace; empty
/// when the member is absent) is not a string. The text is copied into
/// `storage`, which the caller reuses from line to line.
std::optional<std::string_view> string_token(std::string_view token, std::string& storage) {
  JsonReader in(token);
  std::string_view text;
  if (!in.read_string(text) || !in.finish()) return std::nullopt;
  storage.assign(text);
  return std::string_view(storage);
}

}  // namespace

// A member name written with escape sequences is treated as absent: the
// loader then skips the record (a re-execution, never a wrong answer).
// Searching for the literal `"name":` substring is NOT safe here: the same
// bytes can occur inside an earlier string value (e.g. a task id), and
// members may appear in any order.
std::string_view member_value_span(std::string_view line, std::string_view name) {
  auto skip_ws = [&](std::size_t& p) {
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t' ||
                               line[p] == '\n' || line[p] == '\r')) {
      ++p;
    }
  };
  auto skip_string = [&](std::size_t& p) {  // p at the opening quote
    ++p;
    while (p < line.size()) {
      if (line[p] == '\\') {
        p += 2;
        continue;
      }
      if (line[p] == '"') {
        ++p;
        return;
      }
      ++p;
    }
  };
  std::size_t p = 0;
  skip_ws(p);
  if (p >= line.size() || line[p] != '{') return {};
  ++p;
  for (;;) {
    skip_ws(p);
    if (p >= line.size() || line[p] == '}') return {};  // member absent
    const std::size_t key_start = p;
    skip_string(p);
    const std::string_view key = line.substr(key_start, p - key_start);
    skip_ws(p);
    if (p >= line.size() || line[p] != ':') return {};
    ++p;
    skip_ws(p);
    const std::size_t val_start = p;
    // Walk exactly one value: balance braces/brackets outside strings.
    int depth = 0;
    while (p < line.size()) {
      const char c = line[p];
      if (c == '"') {
        skip_string(p);
        continue;
      }
      if (c == '{' || c == '[') {
        ++depth;
        ++p;
        continue;
      }
      if (c == '}' || c == ']') {
        if (depth == 0) break;  // closes the enclosing object
        --depth;
        ++p;
        continue;
      }
      if (c == ',' && depth == 0) break;
      ++p;
    }
    std::size_t val_end = p;
    while (val_end > val_start &&
           (line[val_end - 1] == ' ' || line[val_end - 1] == '\t')) {
      --val_end;
    }
    if (key.size() == name.size() + 2 && key.front() == '"' && key.back() == '"' &&
        key.substr(1, name.size()) == name) {
      return line.substr(val_start, val_end - val_start);
    }
    skip_ws(p);
    if (p >= line.size() || line[p] != ',') return {};  // was the last member
    ++p;
  }
}

/// Integrity digest binding a record's key to its result bytes. Cache
/// files live on disk between runs; a record whose result bytes were
/// damaged (bit rot, concurrent writers, hand edits) but still parse as
/// JSON would otherwise be spliced verbatim into campaign output — a
/// silent wrong answer. A mismatch just invalidates the record, which
/// costs one deterministic re-execution.
std::string record_sum(std::string_view key, std::string_view result_json) {
  FingerprintBuilder fp;
  fp.mix(std::string_view("cache-record-sum"));
  fp.mix(key);
  fp.mix(result_json);
  std::string sum;
  sum.reserve(16);
  append_hex64(sum, fp.digest());
  return sum;
}

std::string task_cache_key(std::uint64_t network_fingerprint, std::uint64_t campaign_seed,
                           std::uint64_t fault_fingerprint, std::string_view stage,
                           std::string_view task_id, std::uint64_t options_fingerprint) {
  // Two chains over the same components with different initial salts —
  // a cheap 128-bit digest.
  std::uint64_t halves[2];
  for (int half = 0; half < 2; ++half) {
    FingerprintBuilder fp;
    fp.mix(static_cast<std::uint64_t>(half == 0 ? 0x6361636865313238ull
                                                : 0x6b65796861736832ull));
    fp.mix(network_fingerprint);
    fp.mix(campaign_seed);
    fp.mix(fault_fingerprint);
    fp.mix(stage);
    fp.mix(task_id);
    fp.mix(options_fingerprint);
    halves[half] = fp.digest();
  }
  std::string key;
  key.reserve(32);
  append_hex64(key, halves[0]);
  append_hex64(key, halves[1]);
  return key;
}

std::size_t ResultCache::load() {
  if (path_.empty()) return 0;
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return 0;
  // One sized read: the buffer is allocated once at the file's length
  // instead of doubling through appends.
  std::string text;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0 && std::fseek(f, 0, SEEK_SET) == 0) {
      text.resize(static_cast<std::size_t>(size));
      text.resize(std::fread(text.data(), 1, text.size(), f));
    }
  }
  std::fclose(f);

  std::size_t loaded = 0;
  std::size_t pos = 0;
  std::string key_storage;
  std::string sum_storage;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    // A record is only durable once its newline hit the disk: a trailing
    // line without one is the torn tail of a crash mid-write — skip it.
    if (eol == std::string::npos) break;
    std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    // Validate without building a DOM, then take the three members as raw
    // spans: the stored result must be the exact bytes the emitter
    // produced (it is spliced verbatim into campaign output). A stage that
    // serves the hit decodes the record in one more pass, again without a
    // DOM (report/from_json.hpp).
    if (line.empty() || !json_valid(line)) continue;
    const std::optional<std::string_view> key =
        string_token(member_value_span(line, "key"), key_storage);
    const std::string_view result = member_value_span(line, "result");
    if (!key || key->size() != 32 || result.empty() || result.front() != '{') continue;
    // Verify the record's integrity digest; records without one (older
    // cache files) or with a stale one are invalidated, never served.
    const std::optional<std::string_view> sum =
        string_token(member_value_span(line, "sum"), sum_storage);
    if (!sum || *sum != record_sum(*key, result)) continue;
    records_.insert_or_assign(std::string(*key), std::string(result));
    ++loaded;
  }
  return loaded;
}

const std::string* ResultCache::find(const std::string& key) const {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

void ResultCache::put(const std::string& key, std::string_view stage,
                      std::string_view task_id, std::string result_json) {
  JsonWriter w;
  w.begin_object();
  w.key("key").value(key);
  w.key("sum").value(record_sum(key, result_json));
  w.key("stage").value(stage);
  w.key("task").value(task_id);
  w.key("result").raw_value(result_json);
  w.end_object();
  pending_ += w.str();
  pending_ += '\n';
  records_[key] = std::move(result_json);
}

void ResultCache::flush() {
  if (path_.empty() || pending_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) return;
  std::fwrite(pending_.data(), 1, pending_.size(), f);
  std::fflush(f);
  std::fclose(f);
  pending_.clear();
}

}  // namespace cen::campaign

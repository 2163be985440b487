#include "campaign/cache.hpp"

#include <cstdio>
#include <functional>
#include <optional>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/json.hpp"
#include "core/strings.hpp"
#include "core/thread_pool.hpp"
#include "scenario/executor.hpp"

namespace cen::campaign {

namespace {

void append_hex64(std::string& out, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(v >> shift) & 0xf]);
  }
}

/// The text a JSON string token denotes, or nullopt when `token` (a raw
/// value span from a valid line; empty when the member is absent) is not
/// a string. The text is copied into `storage`, which the caller reuses
/// from line to line.
std::optional<std::string_view> string_token(std::string_view token, std::string& storage) {
  JsonReader in(token);
  std::string_view text;
  if (!in.read_string(text) || !in.finish()) return std::nullopt;
  storage.assign(text);
  return std::string_view(storage);
}

/// A line's verdict: a valid record's key and result bytes, or an empty
/// key.
struct Record {
  std::string key;
  std::string result;
};
/// A line's decoded key and sum, reused from line to line.
struct Scratch {
  std::string key;
  std::string sum;
};

/// Check one durable line against the acceptance rules (docs/CAMPAIGN.md)
/// and fill `out` when it is a valid record.
void check_line(std::string_view line, Record& out, Scratch& scratch) {
  // One walk validates the line and takes the first top-level `key`,
  // `sum` and `result` as raw spans: the stored result must be the exact
  // bytes the emitter produced (it is spliced verbatim into campaign
  // output). A member name spelled with escapes matches nothing — the
  // reader decodes it into its own scratch, so it is no slice of the line
  // — and its record is skipped (a re-execution, never a wrong answer).
  const char* const first = line.data();
  const char* const last = first + line.size();
  const std::less<const char*> before;
  std::string_view key, sum, result;
  JsonReader in(line);
  auto take = [&](std::string_view name) {
    if (before(name.data(), first) || !before(name.data(), last)) return;
    std::string_view* slot = name == "key"      ? &key
                             : name == "sum"    ? &sum
                             : name == "result" ? &result
                                                : nullptr;
    if (slot != nullptr && slot->empty()) in.skip(*slot);
  };
  if (!in.object(take) || !in.finish() || result.empty() || result.front() != '{') return;
  // The stored bytes run on over the whitespace after the value up to its
  // last CR: trailing spaces and tabs are dropped, a CR is kept.
  const char* end = result.data() + result.size();
  for (const char* p = end; p < last && (*p == ' ' || *p == '\t' || *p == '\r'); ++p) {
    if (*p == '\r') end = p + 1;
  }
  result = std::string_view(result.data(), static_cast<std::size_t>(end - result.data()));
  const std::optional<std::string_view> key_text = string_token(key, scratch.key);
  if (!key_text || key_text->size() != 32) return;
  // Verify the record's integrity digest; records without one (older
  // cache files) or with a stale one are invalidated, never served.
  const std::optional<std::string_view> sum_text = string_token(sum, scratch.sum);
  if (!sum_text || *sum_text != record_sum(*key_text, result)) return;
  out.key.assign(*key_text);
  out.result.assign(result);
}

}  // namespace

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

std::size_t ResultCache::load(ThreadPool* pool) {
  if (path_.empty()) return 0;
  const std::string text = read_file(path_).value_or("");
  // A record is only durable once its newline hit the disk: a trailing
  // line without one is the torn tail of a crash mid-write — skip it.
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0, eol; (eol = text.find('\n', pos)) != std::string::npos;
       pos = eol + 1) {
    lines.emplace_back(text.data() + pos, eol - pos);
  }
  // Lines are checked independently, on the workers when there are any;
  // records then enter the map in file order, so the last valid line for
  // a key wins at every thread count.
  std::vector<Record> checked(lines.size());
  auto check_range = [&](std::size_t begin, std::size_t end) {
    Scratch scratch;
    for (std::size_t i = begin; i < end; ++i) check_line(lines[i], checked[i], scratch);
  };
  if (pool == nullptr) {
    check_range(0, lines.size());
  } else {
    pool->parallel_for_chunked(
        lines.size(), scenario::dispatch_chunk(lines.size(), pool->size()),
        [&](int, std::size_t begin, std::size_t end) { check_range(begin, end); });
  }
  std::size_t loaded = 0;
  for (Record& record : checked) {
    if (record.key.empty()) continue;
    records_.insert_or_assign(std::move(record.key), std::move(record.result));
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

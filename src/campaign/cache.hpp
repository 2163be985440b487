// Incremental result cache / crash-safe checkpoint journal.
//
// Every campaign task result is persisted as one JSONL record keyed by a
// 128-bit content hash of everything that determines the result: the
// network fingerprint (topology + construction seed + endpoints + devices
// + fault plan), the campaign seed, the fault-plan fingerprint, the stage
// tag, the task identity string and the tool-options fingerprint. Editing
// any one knob changes the keys of exactly the affected tasks, so a
// re-run re-executes only what the edit invalidated and splices the rest
// from cache.
//
// The same file doubles as the campaign's checkpoint: it is appended and
// flushed after every batch, so a killed campaign resumes from the last
// completed batch. Loading tolerates a truncated final line (the crash
// case) — everything before it is kept. The cache file is an append-order
// journal, NOT the campaign output: output artifacts are always rendered
// from records in task-identity order, which is what makes a resumed
// run's output byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

namespace cen {
class ThreadPool;
}

namespace cen::campaign {

/// 128-bit cache key (32 hex chars) over the task's full determining
/// context. Two independent mix chains keep the collision probability
/// negligible at paper scale.
std::string task_cache_key(std::uint64_t network_fingerprint, std::uint64_t campaign_seed,
                           std::uint64_t fault_fingerprint, std::string_view stage,
                           std::string_view task_id, std::uint64_t options_fingerprint);

/// The integrity digest (16 hex chars) a record's "sum" member carries:
/// binds its key to its exact result bytes.
std::string record_sum(std::string_view key, std::string_view result_json);

class ResultCache {
 public:
  /// A cache over `path` (empty = in-memory only: no persistence, but
  /// within-run dedup still works).
  explicit ResultCache(std::string path) : path_(std::move(path)) {}

  /// Load existing records from the file. Lines that are not a valid
  /// record (a crash's truncated tail, stray garbage, a stale "sum") are
  /// skipped, not fatal; docs/CAMPAIGN.md lists the acceptance rules.
  /// Each line is checked in one JsonReader walk, with no DOM. With a
  /// `pool` (borrowed, e.g. the campaign run's) its workers check the
  /// lines; null checks them inline. Either way the records enter the
  /// cache in file order, so the last valid line for a key wins and the
  /// result is the same at every pool size. Returns the number of records
  /// loaded.
  std::size_t load(ThreadPool* pool = nullptr);

  /// The cached result document for a key, or nullptr.
  const std::string* find(const std::string& key) const;

  /// Record a fresh result (also visible to find() immediately). The
  /// record is buffered until the next flush().
  void put(const std::string& key, std::string_view stage, std::string_view task_id,
           std::string result_json);

  /// Append buffered records to the file and fflush, making them
  /// crash-durable. No-op for an in-memory cache.
  void flush();

  std::size_t size() const { return records_.size(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::string, std::string> records_;  // key -> result document
  std::string pending_;                         // lines not yet on disk
};

}  // namespace cen::campaign

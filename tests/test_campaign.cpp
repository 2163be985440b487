// Campaign engine acceptance: golden determinism across thread counts,
// crash-safe resume identity, checkpoints streamed in task order,
// per-component cache invalidation and the warm-cache zero-execution
// guarantee (docs/CAMPAIGN.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "centrace/degrade.hpp"
#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "netsim/faults.hpp"
#include "obs/observer.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/country.hpp"
#include "scenario/executor.hpp"
#include "scenario/pipeline.hpp"

using namespace cen;

namespace {

campaign::CampaignSpec small_spec() {
  campaign::CampaignSpec spec;
  spec.name = "test";
  spec.countries = {scenario::Country::kKZ};
  spec.scale = scenario::Scale::kSmall;
  spec.trace.repetitions = 3;
  spec.max_endpoints = 4;
  spec.max_domains = 2;
  spec.fuzz_max_endpoints = 2;
  spec.batch_size = 3;
  return spec;
}

std::string temp_cache(const std::string& name) {
  std::string path = ::testing::TempDir() + "cendevice_campaign_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

std::string file_text(const std::string& path) { return read_file(path).value_or(""); }

/// A string member of a DOM object; "" when absent or not a string.
std::string string_member(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

/// The first `lines` newline-terminated lines of `text`.
std::string first_lines(const std::string& text, std::size_t lines) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    end = text.find('\n', end);
    if (end == std::string::npos) return text;
    ++end;
  }
  return text.substr(0, end);
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// The exact bytes of the value of top-level member `name` in a JSON
/// object line that already passed json_valid; empty when the member is
/// absent. The first of duplicate members counts; names match on their raw
/// token, so a name spelled with escape sequences is absent. The value
/// runs to the next top-level ',' or '}', less trailing spaces and tabs.
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

/// The rule ResultCache::load applied before it validated lines without a
/// DOM: json_parse every durable line, read key and sum through the DOM
/// (member names and string values decoded), take the result's exact
/// bytes with member_value_span, keep the last record per key. The
/// DOM-free load must accept exactly the lines this accepts, with the same
/// bytes — except lines that spell a member name with escape sequences,
/// which it skips (a re-execution, never a wrong answer).
std::map<std::string, std::string> reference_load(std::string_view text, std::size_t& loaded) {
  std::map<std::string, std::string> records;
  loaded = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) break;  // torn tail
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    auto doc = json_parse(line);
    if (doc == nullptr || !doc->is_object()) continue;
    std::string key = string_member(*doc, "key");
    const JsonValue* result = doc->find("result");
    if (key.size() != 32 || result == nullptr || !result->is_object()) continue;
    std::string result_text(member_value_span(line, "result"));
    if (result_text.empty()) continue;
    if (string_member(*doc, "sum") != campaign::record_sum(key, result_text)) continue;
    records[key] = std::move(result_text);
    ++loaded;
  }
  return records;
}

/// Replace the file at `path` with `text`.
void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// Write `text` as the cache file at `path` and load it.
campaign::ResultCache load_text(const std::string& path, const std::string& text,
                                std::size_t& loaded) {
  write_text(path, text);
  campaign::ResultCache cache(path);
  loaded = cache.load();
  return cache;
}

std::string json_string(std::string_view s) { return "\"" + std::string(s) + "\""; }

/// `s` with its first character written as a `\u` escape.
std::string escape_first(std::string_view s) {
  char esc[8];
  std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned char>(s.front()));
  return esc + std::string(s.substr(1));
}

/// One acceptance-table line: what it exercises, its bytes, whether the
/// reference rule accepts it, and whether it spells a member name with
/// escape sequences (the one case the DOM-free load may treat differently).
struct CacheLine {
  std::string what;
  std::string line;
  bool accepted = false;
  bool escaped_name = false;
};

std::vector<CacheLine> cache_line_corpus() {
  const std::string key = campaign::task_cache_key(1, 2, 3, "trace", "KZ:trace:t", 4);
  const std::string other_key = campaign::task_cache_key(5, 6, 7, "trace", "KZ:trace:u", 8);
  const std::string result =
      R"({"tool":"centrace","hops":[{"ttl":1,"ip":"10.0.0.1"}],"note":"a\"b \u00e9"})";
  const std::string sum = campaign::record_sum(key, result);
  const std::string k = json_string(key);
  const std::string s = json_string(sum);
  const std::string r = result;
  // {"key":K,"sum":S,"result":R} with the given pieces substituted.
  auto rec = [&](const std::string& kk, const std::string& ss, const std::string& rr) {
    return "{\"key\":" + kk + ",\"sum\":" + ss + ",\"result\":" + rr + "}";
  };
  auto summed = [&](std::string_view key_text, std::string_view result_text) {
    return json_string(campaign::record_sum(key_text, result_text));
  };
  auto nested = [](int depth) {  // a result object holding `depth` nested arrays
    return "{\"a\":" + std::string(depth, '[') + std::string(depth, ']') + "}";
  };
  std::string upper_sum = sum;
  for (char& c : upper_sum) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  const std::string key31 = key.substr(0, 31);
  const std::string key33 = key + "0";
  const std::string quote_key = key.substr(0, 31) + "\"";  // 32 chars once decoded
  const std::string cr_result = r + "\r";

  std::vector<CacheLine> rows = {
      // Member order and whitespace.
      {"writer order", "{\"key\":" + k + ",\"sum\":" + s +
                           ",\"stage\":\"trace\",\"task\":\"KZ:trace:t\",\"result\":" + r + "}",
       true},
      {"result first", "{\"result\":" + r + ",\"key\":" + k + ",\"sum\":" + s +
                           ",\"stage\":\"trace\",\"task\":\"t\"}",
       true},
      {"sum last", "{\"result\":" + r + ",\"key\":" + k + ",\"sum\":" + s + "}", true},
      {"key last", "{\"sum\":" + s + ",\"result\":" + r + ",\"key\":" + k + "}", true},
      {"task value spells members",
       "{\"task\":\"\\\"key\\\":\\\"" + std::string(32, '0') + "\\\",\\\"result\\\":{}\",\"key\":" +
           k + ",\"sum\":" + s + ",\"result\":" + r + "}",
       true},
      {"extra whitespace", " \t{ \"key\" :\t" + k + " , \"sum\": " + s + "\t,\r\"result\" :  " + r +
                               " \t}\r ",
       true},
      {"whitespace and CR after sum", "{\"key\":" + k + ",\"sum\":" + s + " \r,\"result\":" + r + "}",
       true},
      {"CR after result, sum over bare bytes", rec(k, s, cr_result), false},
      {"CR after result, sum over CR bytes", rec(k, summed(key, cr_result), cr_result), true},
      {"no other members", rec(k, s, r), true},
      // Duplicate members: the first one counts.
      {"duplicate key, first matches",
       "{\"key\":" + k + ",\"key\":" + json_string(other_key) + ",\"sum\":" + s + ",\"result\":" + r + "}",
       true},
      {"duplicate key, first stale",
       "{\"key\":" + json_string(other_key) + ",\"key\":" + k + ",\"sum\":" + s + ",\"result\":" + r + "}",
       false},
      {"duplicate result, first matches",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"result\":" + r + ",\"result\":{}}", true},
      {"duplicate result, first other",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"result\":{},\"result\":" + r + "}", false},
      {"duplicate sum, first matches",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"sum\":\"0000000000000000\",\"result\":" + r + "}",
       true},
      {"duplicate sum, first stale",
       "{\"key\":" + k + ",\"sum\":\"0000000000000000\",\"sum\":" + s + ",\"result\":" + r + "}",
       false},
      // The integrity digest.
      {"missing sum", "{\"key\":" + k + ",\"result\":" + r + "}", false},
      {"stale sum", rec(k, summed(key, "{}"), r), false},
      {"sum over another key", rec(k, summed(other_key, r), r), false},
      {"numeric sum", rec(k, "1234", r), false},
      {"upper-case sum", rec(k, json_string(upper_sum), r), false},
      {"escaped sum value", rec(k, json_string(escape_first(sum)), r), true},
      // The key.
      {"missing key", "{\"sum\":" + s + ",\"result\":" + r + "}", false},
      {"numeric key", rec("123", s, r), false},
      {"null key", rec("null", s, r), false},
      {"array key", rec("[" + k + "]", s, r), false},
      {"31-char key", rec(json_string(key31), summed(key31, r), r), false},
      {"33-char key", rec(json_string(key33), summed(key33, r), r), false},
      {"escaped key value", rec(json_string(escape_first(key)), s, r), true},
      {"key decoding to 32 chars", rec(json_string(key.substr(0, 31) + "\\\""), summed(quote_key, r), r),
       true},
      // The result.
      {"missing result", "{\"key\":" + k + ",\"sum\":" + s + "}", false},
      {"array result", rec(k, summed(key, "[1]"), "[1]"), false},
      {"string result", rec(k, summed(key, "\"x\""), "\"x\""), false},
      {"null result", rec(k, summed(key, "null"), "null"), false},
      {"number result", rec(k, summed(key, "7"), "7"), false},
      {"empty object result", rec(k, summed(key, "{}"), "{}"), true},
      // UTF-8 and string syntax.
      {"invalid UTF-8 in task",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"task\":\"t\xff\",\"result\":" + r + "}", false},
      {"overlong UTF-8 in result", rec(k, summed(key, "{\"s\":\"\xc0\xaf\"}"), "{\"s\":\"\xc0\xaf\"}"),
       false},
      {"raw UTF-8 in result", rec(k, summed(key, "{\"s\":\"\xc3\xa9\"}"), "{\"s\":\"\xc3\xa9\"}"),
       true},
      {"raw control char in string",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"task\":\"a\tb\",\"result\":" + r + "}", false},
      // Nesting: the line is depth 1, the result object depth 2.
      {"nesting at depth 64", rec(k, summed(key, nested(62)), nested(62)), true},
      {"nesting past depth 64", rec(k, summed(key, nested(63)), nested(63)), false},
      // Not one JSON object.
      {"empty line", "", false},
      {"whitespace-only line", " \t", false},
      {"array line", "[1,2]", false},
      {"string line", "\"x\"", false},
      {"garbage", "not json at all", false},
      {"unterminated", "{\"key\":" + k, false},
      {"trailing comma", "{\"key\":" + k + ",\"sum\":" + s + ",\"result\":" + r + ",}", false},
      {"trailing content", rec(k, s, r) + " x", false},
      {"two objects", rec(k, s, r) + rec(k, s, r), false},
      // Member names spelled with escapes.
      {"escaped member name: key", "{\"k\\u0065y\":" + k + ",\"sum\":" + s + ",\"result\":" + r + "}",
       true, true},
      {"escaped member name: sum", "{\"key\":" + k + ",\"\\u0073um\":" + s + ",\"result\":" + r + "}",
       true, true},
      {"escaped member name: result",
       "{\"key\":" + k + ",\"sum\":" + s + ",\"r\\u0065sult\":" + r + "}", false, true},
  };
  return rows;
}

}  // namespace

TEST(Campaign, GoldenAcrossThreads) {
  const campaign::CampaignSpec spec = small_spec();
  std::string jsonl[3];
  std::string summary[3];
  std::string metrics[3];
  const int threads[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    obs::Observer observer;
    campaign::RunControl control;
    control.threads = threads[i];
    control.observer = &observer;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.tool_tasks_executed(), r.trace.tasks + r.probe.tasks + r.fuzz.tasks);
    jsonl[i] = r.to_jsonl();
    summary[i] = r.summary_json();
    metrics[i] = report::to_json(observer);  // sim domain only
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(summary[0], summary[1]);
  EXPECT_EQ(summary[0], summary[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
  EXPECT_FALSE(jsonl[0].empty());
}

TEST(Campaign, ResumeIdentityAfterBudgetKills) {
  const campaign::CampaignSpec spec = small_spec();

  campaign::CampaignResult golden = campaign::run(spec, {});
  ASSERT_TRUE(golden.complete);

  // Simulate a crash at every batch boundary: run with a one-batch budget
  // until the campaign completes, resuming from the cache file each time.
  const std::string cache = temp_cache("resume");
  int runs = 0;
  campaign::CampaignResult resumed;
  do {
    campaign::RunControl control;
    control.threads = 2;
    control.cache_path = cache;
    control.max_batches = 1;
    resumed = campaign::run(spec, control);
    ASSERT_LT(++runs, 64) << "campaign did not converge";
  } while (!resumed.complete);
  EXPECT_GT(runs, 2) << "budget of one batch should force several resumes";

  EXPECT_EQ(resumed.to_jsonl(), golden.to_jsonl());
  EXPECT_EQ(resumed.summary_json(), golden.summary_json());
  // The final resumed run must have executed only the last tasks; most
  // of its output came from the checkpoint.
  EXPECT_GT(resumed.cache_hits(), 0u);
  std::remove(cache.c_str());
}

TEST(Campaign, ResumeIdentityUnderFaultPlan) {
  campaign::CampaignSpec spec = small_spec();
  spec.faults.default_link.loss = 0.05;
  spec.faults.default_node.icmp_rate_per_sec = 50.0;
  spec.trace.adaptive_max_retries = 6;

  campaign::CampaignResult golden = campaign::run(spec, {});
  ASSERT_TRUE(golden.complete);

  // Thread identity holds under the non-inert plan...
  campaign::RunControl inline_control;
  inline_control.threads = 0;
  campaign::CampaignResult inline_run = campaign::run(spec, inline_control);
  EXPECT_EQ(inline_run.to_jsonl(), golden.to_jsonl());

  // ...and so does kill/resume.
  const std::string cache = temp_cache("resume_faults");
  campaign::CampaignResult resumed;
  int runs = 0;
  do {
    campaign::RunControl control;
    control.threads = 4;
    control.cache_path = cache;
    control.max_batches = 2;
    resumed = campaign::run(spec, control);
    ASSERT_LT(++runs, 64);
  } while (!resumed.complete);
  EXPECT_EQ(resumed.to_jsonl(), golden.to_jsonl());
  std::remove(cache.c_str());
}

TEST(Campaign, NoopRerunIsAllCacheHits) {
  const campaign::CampaignSpec spec = small_spec();
  const std::string cache = temp_cache("noop");

  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;
  campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  EXPECT_GT(cold.tool_tasks_executed(), 0u);
  EXPECT_EQ(cold.cache_hits(), 0u);

  campaign::CampaignResult warm = campaign::run(spec, control);
  ASSERT_TRUE(warm.complete);
  EXPECT_EQ(warm.tool_tasks_executed(), 0u) << "warm re-run must execute zero tool tasks";
  EXPECT_EQ(warm.cache_hits(), warm.trace.tasks + warm.probe.tasks + warm.fuzz.tasks);
  EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
  EXPECT_EQ(warm.summary_json(), cold.summary_json());
  std::remove(cache.c_str());
}

TEST(Campaign, CacheInvalidationPerKeyComponent) {
  const campaign::CampaignSpec base = small_spec();
  const std::string cache = temp_cache("invalidate");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;

  campaign::CampaignResult cold = campaign::run(base, control);
  ASSERT_TRUE(cold.complete);

  // (a) Tool options: more repetitions re-executes every trace task, but
  // the probe stage (options unchanged, same discovered devices) and the
  // fuzz stage (options unchanged) still hit the cache.
  {
    campaign::CampaignSpec spec = base;
    spec.trace.repetitions = 5;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.executed, r.trace.tasks);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, r.probe.tasks);
  }

  // (b) Campaign seed: different scenario construction — everything
  // re-executes.
  {
    campaign::CampaignSpec spec = base;
    spec.seed = 99;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, 0u);
    EXPECT_EQ(r.fuzz.cache_hits, 0u);
  }

  // (c) Fault plan: part of every task's key — everything re-executes.
  {
    campaign::CampaignSpec spec = base;
    spec.faults.transient_loss = 0.01;
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, 0u);
    EXPECT_EQ(r.probe.cache_hits, 0u);
  }

  // (d) Task identity: adding one domain executes only the new
  // (endpoint, domain) tasks; every previously-measured pair stays cached.
  {
    scenario::CountryScenario sc =
        scenario::make_country(scenario::Country::kKZ, scenario::Scale::kSmall, base.seed);
    campaign::CampaignSpec spec = base;
    spec.max_domains = -1;  // explicit lists, no stride resampling
    spec.http_domains = sc.http_test_domains;
    spec.https_domains = sc.https_test_domains;
    campaign::CampaignResult warm = campaign::run(spec, control);
    ASSERT_TRUE(warm.complete);

    spec.http_domains.push_back("extra.domain.example");
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.trace.cache_hits, warm.trace.tasks) << "old pairs must stay cached";
    EXPECT_EQ(r.trace.executed, r.trace.tasks - warm.trace.tasks)
        << "only the new domain's tasks may execute";
    EXPECT_GT(r.trace.executed, 0u);
  }
  std::remove(cache.c_str());
}

namespace {

/// Converts to any member type: T{AnyMember{}...} tells how many members
/// an aggregate T has.
struct AnyMember {
  template <typename M>
  operator M() const;
};

template <typename T, typename... Members>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

/// One member of T, changed from its default.
template <typename T>
struct Knob {
  const char* member;
  void (*change)(T&);
};

/// Changing any one knob moves T's digest, each to its own value.
template <typename T>
void expect_every_knob_moves(std::span<const Knob<T>> knobs) {
  const std::uint64_t base = T{}.fingerprint();
  std::set<std::uint64_t> seen = {base};
  for (const Knob<T>& knob : knobs) {
    T changed{};
    knob.change(changed);
    EXPECT_TRUE(seen.insert(changed.fingerprint()).second) << knob.member;
  }
}

}  // namespace

// The cache key holds each tool's fingerprint(), a hand-written digest that
// restates its struct: a member it misses would serve a stale cache line
// after that member changed. Each struct's member count is pinned beside
// its knobs, so a new member fails here until it has a knob.
TEST(Campaign, EveryToolOptionMovesItsFingerprint) {
  using trace::CenTraceOptions;
  static_assert(member_count<CenTraceOptions>() == 9);
  constexpr Knob<CenTraceOptions> kTrace[] = {
      {"max_ttl", [](CenTraceOptions& o) { ++o.max_ttl; }},
      {"retries", [](CenTraceOptions& o) { ++o.retries; }},
      {"repetitions", [](CenTraceOptions& o) { ++o.repetitions; }},
      {"inter_probe_wait", [](CenTraceOptions& o) { ++o.inter_probe_wait; }},
      {"timeout_run_stop", [](CenTraceOptions& o) { ++o.timeout_run_stop; }},
      {"protocol", [](CenTraceOptions& o) { o.protocol = trace::ProbeProtocol::kHttps; }},
      {"retry_backoff", [](CenTraceOptions& o) { ++o.retry_backoff; }},
      {"adaptive_max_retries", [](CenTraceOptions& o) { ++o.adaptive_max_retries; }},
      {"silent_channel_abort", [](CenTraceOptions& o) { ++o.silent_channel_abort; }},
  };
  expect_every_knob_moves<CenTraceOptions>(kTrace);

  using fuzz::CenFuzzOptions;
  static_assert(member_count<CenFuzzOptions>() == 6);
  constexpr Knob<CenFuzzOptions> kFuzz[] = {
      {"retries", [](CenFuzzOptions& o) { ++o.retries; }},
      {"wait_after_blocked", [](CenFuzzOptions& o) { ++o.wait_after_blocked; }},
      {"wait_after_ok", [](CenFuzzOptions& o) { ++o.wait_after_ok; }},
      {"run_http", [](CenFuzzOptions& o) { o.run_http = false; }},
      {"run_tls", [](CenFuzzOptions& o) { o.run_tls = false; }},
      {"baseline_attempts", [](CenFuzzOptions& o) { ++o.baseline_attempts; }},
  };
  expect_every_knob_moves<CenFuzzOptions>(kFuzz);

  using ambig::AmbigOptions;
  static_assert(member_count<AmbigOptions>() == 7);
  constexpr Knob<AmbigOptions> kAmbig[] = {
      {"repetitions", [](AmbigOptions& o) { ++o.repetitions; }},
      {"retries", [](AmbigOptions& o) { ++o.retries; }},
      {"wait_after_blocked", [](AmbigOptions& o) { ++o.wait_after_blocked; }},
      {"wait_after_ok", [](AmbigOptions& o) { ++o.wait_after_ok; }},
      {"retry_backoff", [](AmbigOptions& o) { ++o.retry_backoff; }},
      {"max_distance_ttl", [](AmbigOptions& o) { ++o.max_distance_ttl; }},
      {"order_salt", [](AmbigOptions& o) { ++o.order_salt; }},
  };
  expect_every_knob_moves<AmbigOptions>(kAmbig);

  // The plan's scalars, its default link and node profiles, and one
  // override of each.
  using sim::FaultPlan;
  static_assert(member_count<FaultPlan>() == 8);
  static_assert(member_count<sim::FaultProfile>() == 5);
  static_assert(member_count<sim::NodeFaultProfile>() == 3);
  constexpr Knob<FaultPlan> kFaults[] = {
      {"transient_loss", [](FaultPlan& p) { p.transient_loss = 0.01; }},
      {"default_link.loss", [](FaultPlan& p) { p.default_link.loss = 0.01; }},
      {"default_link.duplicate", [](FaultPlan& p) { p.default_link.duplicate = 0.01; }},
      {"default_link.reorder", [](FaultPlan& p) { p.default_link.reorder = 0.01; }},
      {"default_link.truncate", [](FaultPlan& p) { p.default_link.truncate = 0.01; }},
      {"default_link.corrupt", [](FaultPlan& p) { p.default_link.corrupt = 0.01; }},
      {"link_overrides", [](FaultPlan& p) { p.set_link(1, 2, {.loss = 0.01}); }},
      {"default_node.icmp_blackhole", [](FaultPlan& p) { p.default_node.icmp_blackhole = true; }},
      {"default_node.icmp_rate_per_sec",
       [](FaultPlan& p) { p.default_node.icmp_rate_per_sec = 1.0; }},
      {"default_node.icmp_burst", [](FaultPlan& p) { p.default_node.icmp_burst = 5.0; }},
      {"node_overrides", [](FaultPlan& p) { p.node_overrides[1].icmp_blackhole = true; }},
      {"route_flap_period", [](FaultPlan& p) { p.route_flap_period = 1; }},
      {"mgmt_drop", [](FaultPlan& p) { p.mgmt_drop = 0.01; }},
      {"banner_truncate", [](FaultPlan& p) { p.banner_truncate = 0.01; }},
  };
  expect_every_knob_moves<FaultPlan>(kFaults);

  using trace::DegradationPlan;
  static_assert(member_count<DegradationPlan>() == 6);
  static_assert(member_count<tomo::SolverOptions>() == 3);
  constexpr Knob<DegradationPlan> kDegradation[] = {
      {"tomography", [](DegradationPlan& p) { p.tomography = true; }},
      {"vantages", [](DegradationPlan& p) { p.vantages = {1}; }},
      {"rounds", [](DegradationPlan& p) { ++p.rounds; }},
      {"round_spacing", [](DegradationPlan& p) { ++p.round_spacing; }},
      {"control_path_retries", [](DegradationPlan& p) { ++p.control_path_retries; }},
      {"solver.max_cover_size", [](DegradationPlan& p) { ++p.solver.max_cover_size; }},
      {"solver.max_candidates", [](DegradationPlan& p) { ++p.solver.max_candidates; }},
      {"solver.max_suspects", [](DegradationPlan& p) { ++p.solver.max_suspects; }},
  };
  expect_every_knob_moves<DegradationPlan>(kDegradation);
}

TEST(Campaign, SpecJsonRoundTrip) {
  campaign::CampaignSpec spec = small_spec();
  spec.http_domains = {"a.example", "b.example"};
  spec.faults.default_link.loss = 0.125;
  spec.stages.cluster = false;
  spec.trace.protocol = trace::ProbeProtocol::kHttps;

  const std::string doc = campaign::to_json(spec);
  std::string error;
  auto loaded = campaign::spec_from_json(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(campaign::to_json(*loaded), doc);
  EXPECT_EQ(loaded->http_domains, spec.http_domains);
  EXPECT_EQ(loaded->trace.protocol, spec.trace.protocol);

  EXPECT_FALSE(campaign::spec_from_json("{\"countries\":[\"XX\"]}", &error).has_value());
  EXPECT_NE(error.find("XX"), std::string::npos);
  EXPECT_FALSE(campaign::spec_from_json("{\"batch_size\":0}", &error).has_value());
  EXPECT_FALSE(campaign::spec_from_json("not json", &error).has_value());
}

TEST(Campaign, CountryCodesRoundTrip) {
  // One code table serves the spec decoder and `cen --country`; the CLI
  // also takes lower case (a ctest runs `cen trace --country kz`), the
  // spec takes upper case only.
  std::string error;
  for (scenario::Country c : scenario::all_countries()) {
    const std::string doc =
        "{\"countries\":[\"" + std::string(scenario::country_code(c)) + "\"]}";
    const std::optional<campaign::CampaignSpec> spec = campaign::spec_from_json(doc, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->countries, std::vector<scenario::Country>{c});
  }
  EXPECT_EQ(std::size(scenario::kCountryCodes), scenario::all_countries().size());
  EXPECT_TRUE(campaign::spec_from_json("{\"countries\":[\"KZ\"]}", &error).has_value());
  EXPECT_FALSE(campaign::spec_from_json("{\"countries\":[\"kz\"]}", &error).has_value());
  EXPECT_FALSE(campaign::spec_from_json("{\"countries\":[\"XX\"]}", &error).has_value());
}

TEST(Campaign, SpecNumbersSaturate) {
  // Out-of-range numbers clamp to the member's range; a plain cast of such
  // a double to an integer is undefined behaviour.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::pair<const char*, std::uint64_t> extremes[] = {
      {"-1", 0}, {"1e300", max}, {"-1e300", 0}};
  for (const auto& [x, want] : extremes) {
    const std::string v(x);
    auto spec = campaign::spec_from_json(
        R"({"seed":)" + v + R"(,"trace":{"retry_backoff_ms":)" + v +
        R"(},"ambig":{"wait_after_blocked_ms":)" + v + R"(,"wait_after_ok_ms":)" + v +
        R"(,"retry_backoff_ms":)" + v + R"(,"order_salt":)" + v +
        R"(},"faults":{"route_flap_period_ms":)" + v + "}}");
    ASSERT_TRUE(spec.has_value()) << x;
    EXPECT_EQ(spec->seed, want) << x;
    EXPECT_EQ(spec->trace.retry_backoff, want) << x;
    EXPECT_EQ(spec->ambig.wait_after_blocked, want) << x;
    EXPECT_EQ(spec->ambig.wait_after_ok, want) << x;
    EXPECT_EQ(spec->ambig.retry_backoff, want) << x;
    EXPECT_EQ(spec->ambig.order_salt, want) << x;
    EXPECT_EQ(spec->faults.route_flap_period, want) << x;
  }
}

TEST(Campaign, CacheToleratesTornTail) {
  const std::string path = temp_cache("torn");
  {
    campaign::ResultCache cache(path);
    cache.put(campaign::task_cache_key(1, 2, 3, "trace", "t1", 4), "trace", "t1",
              "{\"tool\":\"centrace\"}");
    cache.put(campaign::task_cache_key(1, 2, 3, "trace", "t2", 4), "trace", "t2",
              "{\"tool\":\"centrace\"}");
    cache.flush();
  }
  // Simulate a crash mid-append: a record without its trailing newline.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"key\":\"00000000000000000000000000000000\",\"stage\":\"tr";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }
  campaign::ResultCache cache(path);
  EXPECT_EQ(cache.load(), 2u) << "torn tail must be skipped, durable records kept";
  const std::string* doc = cache.find(campaign::task_cache_key(1, 2, 3, "trace", "t1", 4));
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(*doc, "{\"tool\":\"centrace\"}");
  std::remove(path.c_str());
}

TEST(Campaign, CacheLoadAcceptsWhatTheDomRuleAccepts) {
  const std::string path = temp_cache("accept");
  // The corpus's first line is the writer's own rendering of the record.
  {
    campaign::ResultCache writer(path);
    const std::string key = campaign::task_cache_key(1, 2, 3, "trace", "KZ:trace:t", 4);
    writer.put(key, "trace", "KZ:trace:t",
               R"({"tool":"centrace","hops":[{"ttl":1,"ip":"10.0.0.1"}],"note":"a\"b \u00e9"})");
    writer.flush();
  }
  const std::vector<CacheLine> corpus = cache_line_corpus();
  ASSERT_EQ(file_text(path), corpus.front().line + "\n");

  for (const CacheLine& row : corpus) {
    SCOPED_TRACE(row.what);
    const std::string text = row.line + "\n";
    std::size_t ref_loaded = 0;
    const std::map<std::string, std::string> ref = reference_load(text, ref_loaded);
    ASSERT_EQ(ref_loaded, row.accepted ? 1u : 0u) << "corpus row mislabelled";
    std::size_t loaded = 0;
    const campaign::ResultCache cache = load_text(path, text, loaded);
    if (row.escaped_name) {
      // The one allowed difference: such a line is skipped and re-executed.
      EXPECT_EQ(loaded, 0u);
      EXPECT_EQ(cache.size(), 0u);
      continue;
    }
    EXPECT_EQ(loaded, ref_loaded);
    ASSERT_EQ(cache.size(), ref.size());
    for (const auto& [key, bytes] : ref) {
      const std::string* got = cache.find(key);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, bytes);
    }
  }
  std::remove(path.c_str());
}

TEST(Campaign, CacheLoadMatchesTheDomRuleOverOneFile) {
  // The whole corpus in one file, then the same key twice (the last
  // record wins) and a torn tail (skipped).
  const std::string key = campaign::task_cache_key(9, 9, 9, "fuzz", "KZ:fuzz:x", 9);
  std::string text;
  for (const CacheLine& row : cache_line_corpus()) {
    if (!row.escaped_name) text += row.line + "\n";
  }
  for (const char* result : {R"({"n":1})", R"({"n":2})"}) {
    text += "{\"key\":\"" + key + "\",\"sum\":\"" + campaign::record_sum(key, result) +
            "\",\"result\":" + result + "}\n";
  }
  const std::string torn_key = campaign::task_cache_key(8, 8, 8, "fuzz", "KZ:fuzz:y", 8);
  text += "{\"key\":\"" + torn_key + "\",\"sum\":\"" + campaign::record_sum(torn_key, "{}") +
          "\",\"result\":{}}";

  std::size_t ref_loaded = 0;
  const std::map<std::string, std::string> ref = reference_load(text, ref_loaded);
  ASSERT_EQ(ref.at(key), R"({"n":2})");
  ASSERT_EQ(ref.count(torn_key), 0u);

  const std::string path = temp_cache("accept_file");
  std::size_t loaded = 0;
  const campaign::ResultCache cache = load_text(path, text, loaded);
  EXPECT_EQ(loaded, ref_loaded);
  ASSERT_EQ(cache.size(), ref.size());
  for (const auto& [k, bytes] : ref) {
    const std::string* got = cache.find(k);
    ASSERT_NE(got, nullptr) << k;
    EXPECT_EQ(*got, bytes) << k;
  }
  std::remove(path.c_str());
}

TEST(Campaign, CacheLoadSameAtEveryThreadCount) {
  // The corpus (less the escaped-name rows, the one allowed difference
  // from the reference rule), then 96 records over 24 keys: record i
  // writes key i*s mod 24, s cycling through 1, 7, 13 and 29, so a key
  // repeats both a few lines and many lines apart, within a chunk and
  // across chunk boundaries at every pool size. Every third record has a
  // stale sum, so which write wins depends on file order. Then a torn tail.
  std::string text;
  for (const CacheLine& row : cache_line_corpus()) {
    if (!row.escaped_name) text += row.line + "\n";
  }
  std::vector<std::string> keys;
  for (std::uint64_t k = 0; k < 24; ++k) {
    keys.push_back(campaign::task_cache_key(k, 1, 2, "fuzz", "KZ:fuzz:" + std::to_string(k), 3));
  }
  for (std::size_t i = 0; i < 96; ++i) {
    const std::size_t stride[] = {1, 7, 13, 29};
    const std::string& key = keys[(i * stride[i % 4]) % keys.size()];
    const std::string result = "{\"n\":" + std::to_string(i) + "}";
    const std::string sum = campaign::record_sum(key, i % 3 == 2 ? "{}" : result);
    text += "{\"key\":\"" + key + "\",\"sum\":\"" + sum + "\",\"result\":" + result + "}\n";
  }
  text += "{\"key\":\"" + keys[0] + "\",\"sum\":\"" +
          campaign::record_sum(keys[0], "{\"torn\":1}") + "\",\"result\":{\"torn\":1}}";

  std::size_t ref_loaded = 0;
  const std::map<std::string, std::string> ref = reference_load(text, ref_loaded);
  ASSERT_GE(ref_loaded, 64u);
  ASSERT_EQ(ref.at(keys[0]).find("torn"), std::string::npos);

  const std::string path = temp_cache("threads");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  for (int threads : {0, 1, 2, 3, 4, -1}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const int workers = scenario::resolve_threads(threads);
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    campaign::ResultCache cache(path);
    EXPECT_EQ(cache.load(pool.get()), ref_loaded);
    EXPECT_EQ(cache.size(), ref.size());
    EXPECT_EQ(cache.documents(), ref.size()) << "a superseded line is still held";
    for (const auto& [key, bytes] : ref) {
      const std::string* got = cache.find(key);
      ASSERT_NE(got, nullptr) << key;
      EXPECT_EQ(*got, bytes) << key;
    }
  }
  std::remove(path.c_str());
}

TEST(Campaign, StageTogglesStarveDownstream) {
  campaign::CampaignSpec spec = small_spec();
  spec.stages.probe = false;
  spec.stages.fuzz = false;
  campaign::CampaignResult r = campaign::run(spec, {});
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.trace.tasks, 0u);
  EXPECT_EQ(r.probe.tasks, 0u);
  EXPECT_EQ(r.fuzz.tasks, 0u);
  // Blocked endpoints are still identified (bundled without fuzz/banner).
  EXPECT_GT(r.blocked_endpoints, 0u);
}

TEST(Campaign, CorruptedResultBytesAreInvalidatedBySum) {
  // Regression: every cache record carries an integrity digest ("sum")
  // binding its key to its exact result bytes. A record whose result was
  // damaged on disk but still parses as JSON must be re-executed, never
  // spliced verbatim into campaign output.
  const campaign::CampaignSpec spec = small_spec();
  const std::string cache = temp_cache("sum");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;

  campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  const std::size_t total = cold.trace.tasks + cold.probe.tasks + cold.fuzz.tasks;

  // Tamper with one record: change one digit inside its result value. The
  // line still parses as JSON — only the digest can catch this.
  std::string text = file_text(cache);
  ASSERT_FALSE(text.empty());
  bool tampered = false;
  std::size_t line_start = 0;
  while (line_start < text.size() && !tampered) {
    std::size_t eol = text.find('\n', line_start);
    if (eol == std::string::npos) eol = text.size();
    std::size_t result_pos = text.find("\"result\":", line_start);
    if (result_pos != std::string::npos && result_pos < eol) {
      for (std::size_t i = result_pos + 9; i < eol; ++i) {
        if (text[i] >= '0' && text[i] <= '9') {
          text[i] = text[i] == '1' ? '2' : '1';
          tampered = true;
          break;
        }
      }
    }
    line_start = eol + 1;
  }
  ASSERT_TRUE(tampered);
  {
    std::FILE* f = std::fopen(cache.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  campaign::CampaignResult warm = campaign::run(spec, control);
  ASSERT_TRUE(warm.complete);
  // Exactly the damaged record re-executes; everything else still hits.
  EXPECT_EQ(warm.tool_tasks_executed(), 1u);
  EXPECT_EQ(warm.cache_hits(), total - 1);
  // The re-executed task is deterministic, so output is unchanged.
  EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
  EXPECT_EQ(warm.summary_json(), cold.summary_json());
  std::remove(cache.c_str());
}

TEST(Campaign, WarmRunSameAtEveryThreadCount) {
  // A warm run serves every task from the cache; the hits are decoded on
  // the run's workers when it has any. Output, hit count and cache file
  // must not depend on the thread count (the TSan preset runs this suite).
  const campaign::CampaignSpec spec = small_spec();
  ASSERT_TRUE(spec.stages.fuzz);
  const std::string cache = temp_cache("warm_threads");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;
  const campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  ASSERT_GT(cold.fuzz.executed, 0u);
  const std::size_t total = cold.trace.tasks + cold.probe.tasks + cold.fuzz.tasks;
  const std::string bytes = file_text(cache);

  for (int threads : {0, 1, 2, 3, 4, -1}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    control.threads = threads;
    const campaign::CampaignResult warm = campaign::run(spec, control);
    ASSERT_TRUE(warm.complete);
    EXPECT_EQ(warm.tool_tasks_executed(), 0u);
    EXPECT_EQ(warm.cache_hits(), total);
    EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
    EXPECT_EQ(warm.summary_json(), cold.summary_json());
    EXPECT_EQ(file_text(cache), bytes);
  }
  std::remove(cache.c_str());
}

TEST(Campaign, UndecodableHitIsReexecuted) {
  // A hit counts only when its record still decodes. One trace record's
  // result becomes valid JSON that the trace decoder rejects, under a sum
  // recomputed so the load accepts the line: that task must re-execute.
  const campaign::CampaignSpec spec = small_spec();
  const std::string cache = temp_cache("undecodable");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;
  const campaign::CampaignResult cold = campaign::run(spec, control);
  ASSERT_TRUE(cold.complete);
  const std::size_t total = cold.trace.tasks + cold.probe.tasks + cold.fuzz.tasks;

  const std::string text = file_text(cache);
  const std::size_t eol = text.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const auto first = json_parse(std::string_view(text).substr(0, eol));
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(string_member(*first, "stage"), "trace");
  const std::string key = string_member(*first, "key");
  const std::string bad = "{\"test_domain\":7}";
  ASSERT_FALSE(report::trace_report_from_json(bad).has_value());
  JsonWriter w;
  w.begin_object();
  w.key("key").value(key);
  w.key("sum").value(campaign::record_sum(key, bad));
  w.key("stage").value("trace");
  w.key("task").value(string_member(*first, "task"));
  w.key("result").raw_value(bad);
  w.end_object();
  const std::string damaged = w.str() + text.substr(eol);

  for (int threads : {0, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    write_text(cache, damaged);
    campaign::ResultCache check(cache);
    ASSERT_EQ(check.load(), cold.tool_tasks_executed());  // the damaged line loads
    control.threads = threads;
    const campaign::CampaignResult warm = campaign::run(spec, control);
    ASSERT_TRUE(warm.complete);
    EXPECT_EQ(warm.tool_tasks_executed(), 1u);
    EXPECT_EQ(warm.cache_hits(), total - 1);
    EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
    EXPECT_EQ(warm.summary_json(), cold.summary_json());
  }
  std::remove(cache.c_str());
}

// ------------------------------------------------ streamed checkpoints

TEST(Campaign, CacheFileBytesIdenticalAcrossThreads) {
  // Checkpoint batches are written in task order by whichever worker
  // completes them, so the journal itself — not just the rendered output —
  // is the same at every thread count.
  const campaign::CampaignSpec spec = small_spec();
  std::string bytes[3];
  const int threads[3] = {0, 1, 4};
  for (int t = 0; t < 3; ++t) {
    const std::string cache = temp_cache("bytes_" + std::to_string(threads[t]));
    campaign::RunControl control;
    control.threads = threads[t];
    control.cache_path = cache;
    ASSERT_TRUE(campaign::run(spec, control).complete);
    bytes[t] = file_text(cache);
    std::remove(cache.c_str());
  }
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(bytes[0], bytes[2]);
}

TEST(Campaign, BudgetStopLeavesExactlyTheFirstBatches) {
  const campaign::CampaignSpec spec = small_spec();
  const std::string full_path = temp_cache("budget_full");
  campaign::RunControl full_control;
  full_control.threads = 0;
  full_control.cache_path = full_path;
  const campaign::CampaignResult golden = campaign::run(spec, full_control);
  ASSERT_TRUE(golden.complete);
  const std::string full = file_text(full_path);
  std::remove(full_path.c_str());

  // k batches fit inside the first stage (trace), whose tasks all miss on
  // a cold cache, so exactly k * batch_size records may be on disk: the
  // dispatch is capped at what the budget allows even though one dispatch
  // now carries many batches.
  const int k = 3;
  ASSERT_GT(golden.trace.tasks, static_cast<std::size_t>(k * spec.batch_size));
  const std::string cache = temp_cache("budget_k");
  campaign::RunControl control;
  control.threads = 4;
  control.cache_path = cache;
  control.max_batches = k;
  const campaign::CampaignResult stopped = campaign::run(spec, control);
  EXPECT_FALSE(stopped.complete);
  EXPECT_EQ(stopped.trace.batches, static_cast<std::size_t>(k));
  EXPECT_EQ(stopped.trace.executed, static_cast<std::size_t>(k * spec.batch_size));
  const std::string partial = file_text(cache);
  EXPECT_EQ(count_lines(partial), static_cast<std::size_t>(k * spec.batch_size));
  EXPECT_EQ(partial, first_lines(full, static_cast<std::size_t>(k * spec.batch_size)));

  // Resuming without a budget appends the rest in order: the journal ends
  // up byte-identical to the uninterrupted one, and so does the output.
  control.max_batches = -1;
  const campaign::CampaignResult resumed = campaign::run(spec, control);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.trace.cache_hits, static_cast<std::size_t>(k * spec.batch_size));
  EXPECT_EQ(resumed.to_jsonl(), golden.to_jsonl());
  EXPECT_EQ(resumed.summary_json(), golden.summary_json());
  EXPECT_EQ(file_text(cache), full);
  std::remove(cache.c_str());
}

TEST(Campaign, ThrowingTaskLeavesEarlierBatchesDurable) {
  // An SNI longer than a ClientHello can carry makes every HTTPS trace of
  // that domain throw. With one task per batch and the oversized domain
  // second in the HTTPS list, task 3 (endpoint 0) is the first to throw:
  // batches 0-2 finished before it and must be on disk, and nothing
  // after it may be (task order), at every thread count.
  campaign::CampaignSpec spec = small_spec();
  spec.max_endpoints = 2;
  spec.batch_size = 1;
  spec.https_domains = {"ok.example", std::string(70000, 'x') + ".example"};
  std::string bytes[2];
  const int threads[2] = {0, 4};
  for (int t = 0; t < 2; ++t) {
    const std::string cache = temp_cache("throw_" + std::to_string(threads[t]));
    campaign::RunControl control;
    control.threads = threads[t];
    control.cache_path = cache;
    EXPECT_ANY_THROW(campaign::run(spec, control)) << threads[t] << " threads";
    bytes[t] = file_text(cache);
    campaign::ResultCache reloaded(cache);
    EXPECT_EQ(reloaded.load(), 3u) << threads[t] << " threads";
    std::remove(cache.c_str());
  }
  EXPECT_EQ(count_lines(bytes[0]), 3u);
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(Campaign, SharesOneObserverWithThePipeline) {
  // Regression: the pipeline exported perf.* / pathcache.* as gauges and
  // the campaign as counters under the same names, so one registry fed by
  // both threw "metric kind mismatch".
  obs::Observer observer;
  scenario::CountryScenario sc =
      scenario::make_country(scenario::Country::kKZ, scenario::Scale::kSmall);
  scenario::PipelineOptions options;
  options.centrace_repetitions = 3;
  options.max_endpoints = 2;
  options.max_domains = 1;
  options.run_fuzz = false;
  options.threads = 2;
  options.observer = &observer;
  EXPECT_NO_THROW(scenario::run_country_pipeline(sc, options));

  campaign::RunControl control;
  control.threads = 2;
  control.observer = &observer;
  EXPECT_NO_THROW(campaign::run(small_spec(), control));
  EXPECT_NE(observer.metrics().to_json(/*include_wall=*/true).find("perf.tasks"),
            std::string::npos);
}

TEST(Campaign, ExportsSerialSiteWorkAsWallCounters) {
  obs::Observer observer;
  campaign::RunControl control;
  control.threads = 2;
  control.observer = &observer;
  ASSERT_TRUE(campaign::run(small_spec(), control).complete);
  const obs::Registry& m = observer.metrics();
  EXPECT_GT(m.counter_value("campaign.site_build_ns"), 0u);
  EXPECT_GT(m.counter_value("campaign.fingerprint_ns"), 0u);
  const std::string with_wall = m.to_json(/*include_wall=*/true);
  EXPECT_NE(with_wall.find("campaign.site_build_ns"), std::string::npos);
  EXPECT_NE(with_wall.find("campaign.fingerprint_ns"), std::string::npos);
  const std::string deterministic = m.to_json();
  EXPECT_EQ(deterministic.find("campaign.site_build_ns"), std::string::npos);
  EXPECT_EQ(deterministic.find("campaign.fingerprint_ns"), std::string::npos);
}

TEST(Campaign, ExportsCacheLoadAndHitDecodeAsWallCounters) {
  const std::string cache = temp_cache("load_counters");
  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = cache;
  ASSERT_TRUE(campaign::run(small_spec(), control).complete);  // fills the cache

  obs::Observer observer;
  control.observer = &observer;
  const campaign::CampaignResult warm = campaign::run(small_spec(), control);
  ASSERT_TRUE(warm.complete);
  ASSERT_EQ(warm.tool_tasks_executed(), 0u);
  const obs::Registry& m = observer.metrics();
  EXPECT_GT(m.counter_value("campaign.cache_load_ns"), 0u);
  EXPECT_GT(m.counter_value("campaign.hit_decode_ns"), 0u);
  const std::string with_wall = m.to_json(/*include_wall=*/true);
  EXPECT_NE(with_wall.find("campaign.cache_load_ns"), std::string::npos);
  EXPECT_NE(with_wall.find("campaign.hit_decode_ns"), std::string::npos);
  const std::string deterministic = m.to_json();
  EXPECT_EQ(deterministic.find("campaign.cache_load_ns"), std::string::npos);
  EXPECT_EQ(deterministic.find("campaign.hit_decode_ns"), std::string::npos);
  std::remove(cache.c_str());
}

TEST(Campaign, BatchesExecutedCountsEveryStage) {
  // Regression: the metric summed the trace, probe and fuzz batches and
  // left out the ambig stage's, which count against max_batches too.
  campaign::CampaignSpec spec = small_spec();
  spec.stages.ambig = true;
  spec.ambig_max_endpoints = 2;
  spec.ambig.repetitions = 1;
  obs::Observer observer;
  campaign::RunControl control;
  control.threads = 2;
  control.observer = &observer;
  const campaign::CampaignResult r = campaign::run(spec, control);
  ASSERT_TRUE(r.complete);
  ASSERT_GT(r.ambig.batches, 0u);
  EXPECT_EQ(observer.metrics().counter_value("campaign.batches_executed"),
            r.trace.batches + r.probe.batches + r.fuzz.batches + r.ambig.batches);
}

TEST(Campaign, FuzzStageIdenticalAcrossThreads) {
  // More fuzz tasks than workers, and test domains that repeat across
  // endpoints, so the workers of one dispatch share the stage's probe
  // tables (the TSan preset runs this suite).
  campaign::CampaignSpec spec = small_spec();
  spec.countries = {scenario::Country::kKZ, scenario::Country::kRU};
  spec.max_endpoints = -1;
  spec.max_domains = 1;
  spec.fuzz_max_endpoints = -1;
  spec.stages.probe = false;
  std::string jsonl[3];
  std::string bytes[3];
  const int threads[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    const std::string cache = temp_cache("fuzz_" + std::to_string(threads[i]));
    campaign::RunControl control;
    control.threads = threads[i];
    control.cache_path = cache;
    const campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    EXPECT_GT(r.fuzz.executed, 8u);
    std::set<std::string> test_domains;
    for (const ml::EndpointMeasurement& m : r.measurements) {
      if (m.fuzz) test_domains.insert(m.fuzz->test_domain);
    }
    EXPECT_LT(test_domains.size(), r.fuzz.executed);
    jsonl[i] = r.to_jsonl();
    bytes[i] = file_text(cache);
    std::remove(cache.c_str());
  }
  EXPECT_FALSE(jsonl[0].empty());
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(bytes[0], bytes[2]);
}

// ------------------------------------------------ record bytes hand-over

namespace {

/// The records of the `index`-th site of `r` (sites run in list order,
/// each with a contiguous run of records).
std::vector<campaign::CampaignRecord> site_records(const campaign::CampaignResult& r,
                                                   std::size_t index) {
  std::vector<campaign::CampaignRecord> out;
  std::size_t site = 0;
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    if (i > 0 && r.records[i].country != r.records[i - 1].country) ++site;
    if (site == index) out.push_back(r.records[i]);
  }
  return out;
}

bool same_record(const campaign::CampaignRecord& a, const campaign::CampaignRecord& b) {
  return a.stage == b.stage && a.task_id == b.task_id && a.country == b.country &&
         a.json == b.json;
}

}  // namespace

TEST(Campaign, RepeatedCountryIsServedWithinTheRun) {
  // A country listed twice builds the same network twice, so its second
  // site's tasks carry the keys the first site put: every one is served
  // from the cache within the run, and both sites' records hold the bytes
  // the cache owns once.
  campaign::CampaignSpec spec = small_spec();
  spec.countries = {scenario::Country::kKZ, scenario::Country::kAZ};
  const campaign::CampaignResult pair = campaign::run(spec, {});
  ASSERT_TRUE(pair.complete);
  spec.countries.push_back(scenario::Country::kKZ);

  std::string jsonl[2];
  std::string summary[2];
  const int threads[2] = {0, 4};
  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE("threads " + std::to_string(threads[t]));
    const std::string cache = temp_cache("repeated_" + std::to_string(threads[t]));
    campaign::RunControl control;
    control.threads = threads[t];
    control.cache_path = cache;
    const campaign::CampaignResult cold = campaign::run(spec, control);
    ASSERT_TRUE(cold.complete);
    // The third site executes nothing: the run executes what {KZ, AZ} does.
    EXPECT_EQ(cold.tool_tasks_executed(), pair.tool_tasks_executed());
    EXPECT_EQ(cold.batches_executed(), pair.batches_executed());
    const std::vector<campaign::CampaignRecord> first = site_records(cold, 0);
    const std::vector<campaign::CampaignRecord> third = site_records(cold, 2);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(third.size(), first.size());
    EXPECT_EQ(cold.records.size(), pair.records.size() + first.size());
    EXPECT_EQ(cold.cache_hits(), pair.cache_hits() + first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_TRUE(same_record(third[i], first[i])) << first[i].task_id;
    }
    jsonl[t] = cold.to_jsonl();
    summary[t] = cold.summary_json();

    const std::string bytes = file_text(cache);
    const campaign::CampaignResult warm = campaign::run(spec, control);
    ASSERT_TRUE(warm.complete);
    EXPECT_EQ(warm.tool_tasks_executed(), 0u);
    EXPECT_EQ(warm.to_jsonl(), jsonl[t]);
    EXPECT_EQ(file_text(cache), bytes);
    std::remove(cache.c_str());
  }
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(summary[0], summary[1]);
}

TEST(Campaign, BudgetStopKeepsRecordBytes) {
  // A budget-stopped run returns early from whichever stage ran out, and
  // its records must still hold their bytes: they are the complete run's
  // first records. A repeated country puts hits served within the run
  // among them.
  campaign::CampaignSpec spec = small_spec();
  spec.countries = {scenario::Country::kKZ, scenario::Country::kAZ, scenario::Country::kKZ};
  const campaign::CampaignResult golden = campaign::run(spec, {});
  ASSERT_TRUE(golden.complete);
  const int batches = static_cast<int>(golden.batches_executed());
  ASSERT_GT(batches, 8);
  std::set<std::size_t> lengths;
  for (int k : {1, batches / 4, batches / 2, 3 * batches / 4, batches - 1}) {
    SCOPED_TRACE("max_batches " + std::to_string(k));
    campaign::RunControl control;
    control.threads = 4;
    control.max_batches = k;
    const campaign::CampaignResult stopped = campaign::run(spec, control);
    EXPECT_FALSE(stopped.complete);
    ASSERT_LE(stopped.records.size(), golden.records.size());
    for (std::size_t i = 0; i < stopped.records.size(); ++i) {
      ASSERT_TRUE(same_record(stopped.records[i], golden.records[i])) << i;
    }
    lengths.insert(stopped.records.size());
  }
  EXPECT_GE(lengths.size(), 3u) << "the budgets should stop in different stages";
}

TEST(Campaign, DuplicateKeysRunOnceAtEveryBatchSize) {
  // A task whose key repeats (a domain listed twice) executes once, under
  // the first task's seed, whether the duplicate shares its checkpoint
  // batch or comes in a later one; the other task is a hit. So the journal
  // holds one line per key, a warm run serves the bytes the cold run
  // returned, and nothing moves with batch_size or the thread count. Under
  // loss a second execution of a duplicate would differ.
  campaign::CampaignSpec spec = small_spec();
  spec.max_endpoints = 4;
  spec.max_domains = -1;
  spec.http_domains = {"dup.example", "dup.example"};
  spec.https_domains = {"other.example"};
  spec.stages.probe = spec.stages.fuzz = false;
  spec.faults.transient_loss = 0.3;
  std::string expected_jsonl;
  std::string expected_journal;
  // Batch size 2 cuts each endpoint's tasks (dup, dup, other) across
  // batches both ways: [dup dup] [other dup] [dup other] ...
  for (int batch : {1, 2, 64}) {
    for (int threads : {0, 4}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", threads " + std::to_string(threads));
      spec.batch_size = batch;
      const std::string cache = temp_cache("dup_keys");
      campaign::RunControl control;
      control.threads = threads;
      control.cache_path = cache;
      const campaign::CampaignResult cold = campaign::run(spec, control);
      ASSERT_TRUE(cold.complete);
      EXPECT_EQ(cold.trace.tasks, 12u);
      EXPECT_EQ(cold.trace.executed, 8u);
      EXPECT_EQ(cold.trace.cache_hits, 4u);
      const std::string text = file_text(cache);
      std::set<std::string> keys;
      for (std::size_t pos = 0, eol; (eol = text.find('\n', pos)) != std::string::npos;
           pos = eol + 1) {
        const std::string key(
            member_value_span(std::string_view(text).substr(pos, eol - pos), "key"));
        EXPECT_TRUE(keys.insert(key).second) << "two journal lines for " << key;
      }
      EXPECT_EQ(keys.size(), 8u);

      const campaign::CampaignResult warm = campaign::run(spec, control);
      ASSERT_TRUE(warm.complete);
      EXPECT_EQ(warm.tool_tasks_executed(), 0u);
      EXPECT_EQ(warm.to_jsonl(), cold.to_jsonl());
      EXPECT_EQ(file_text(cache), text);
      if (expected_jsonl.empty()) {
        expected_jsonl = cold.to_jsonl();
        expected_journal = text;
      }
      EXPECT_EQ(cold.to_jsonl(), expected_jsonl);
      EXPECT_EQ(text, expected_journal);
      std::remove(cache.c_str());
    }
  }
}

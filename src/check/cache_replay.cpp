// Cache-replay engine: a campaign warm-started from a damaged result
// cache must either serve a record verbatim (when it is intact) or
// cleanly invalidate it and re-execute — and in every case finish with
// output byte-identical to the cold run. Crashing, or silently splicing
// damaged bytes into the output, is the bug class this engine hunts (it
// is how a crash-resumed measurement campaign publishes wrong data).
//
// One case = one corrupted copy of a golden cache file + one warm run.
// The golden campaign (cold run, pristine cache) is built once per
// process and shared read-only by every case.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "check/engines.hpp"
#include "core/bytes.hpp"
#include "core/json.hpp"
#include "core/strings.hpp"

namespace cen::check {

namespace {

campaign::CampaignSpec golden_spec() {
  campaign::CampaignSpec spec;
  spec.name = "check-cache-replay";
  spec.countries = {scenario::Country::kKZ};
  spec.scale = scenario::Scale::kSmall;
  spec.seed = 11;
  spec.max_endpoints = 4;
  spec.max_domains = 2;
  spec.fuzz_max_endpoints = 2;
  spec.trace.repetitions = 3;
  spec.trace.max_ttl = 24;
  spec.batch_size = 3;
  return spec;
}

struct Golden {
  std::string jsonl;
  std::string summary;
  std::string cache_text;  // the pristine cache file the cold run wrote
  bool ok = false;
};

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return n == text.size();
}

std::string scratch_path(std::string_view tag) {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  return (dir / ("cencheck-" + std::string(tag) + ".jsonl")).string();
}

const Golden& golden() {
  static Golden g;
  static std::once_flag flag;
  std::call_once(flag, [] {
    const std::string path = scratch_path("golden");
    std::remove(path.c_str());
    campaign::RunControl control;
    control.threads = 0;  // inline hermetic
    control.cache_path = path;
    const campaign::CampaignResult cold = campaign::run(golden_spec(), control);
    g.jsonl = cold.to_jsonl();
    g.summary = cold.summary_json();
    g.cache_text = read_file(path).value_or("");
    g.ok = cold.complete && !g.cache_text.empty();
    std::remove(path.c_str());
  });
  return g;
}

/// One structured corruption of a JSONL cache text.
void corrupt(std::string& text, Rng& rng) {
  if (text.empty()) return;
  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') line_starts.push_back(i + 1);
  }
  switch (rng.uniform(9)) {
    case 0:  // truncate mid-record (torn tail of a crash)
      text.resize(rng.index(text.size()) + 1);
      break;
    case 1:  // flip one byte (bit rot / bad sector)
      text[rng.index(text.size())] ^= static_cast<char>(1 << rng.uniform(8));
      break;
    case 2: {  // delete a whole line
      const std::size_t li = rng.index(line_starts.size());
      const std::size_t begin = line_starts[li];
      const std::size_t end =
          li + 1 < line_starts.size() ? line_starts[li + 1] : text.size();
      text.erase(begin, end - begin);
      break;
    }
    case 3: {  // duplicate a line (concurrent writers / replayed append)
      const std::size_t li = rng.index(line_starts.size());
      const std::size_t begin = line_starts[li];
      const std::size_t end =
          li + 1 < line_starts.size() ? line_starts[li + 1] : text.size();
      text.insert(text.size(), text, begin, end - begin);
      break;
    }
    case 4: {  // swap two lines (reordered appends)
      if (line_starts.size() < 2) break;
      const std::size_t a = rng.index(line_starts.size() - 1);
      const std::size_t a_end = line_starts[a + 1];
      const std::size_t b_end =
          a + 2 < line_starts.size() ? line_starts[a + 2] : text.size();
      std::string first = text.substr(line_starts[a], a_end - line_starts[a]);
      std::string second = text.substr(a_end, b_end - a_end);
      if (second.empty() || second.back() != '\n') second += '\n';
      text = text.substr(0, line_starts[a]) + second + first + text.substr(b_end);
      break;
    }
    case 5: {  // insert a garbage line
      static constexpr const char* kGarbage[] = {
          "not json at all\n",
          "{\"key\":\"0123456789abcdef0123456789abcdef\"}\n",
          "{\"key\":123,\"result\":{}}\n",
          "{]\n",
          "\n",
      };
      const std::size_t li = rng.index(line_starts.size());
      text.insert(line_starts[li], kGarbage[rng.uniform(5)]);
      break;
    }
    case 6: {  // overwrite a run of bytes with random junk
      const std::size_t at = rng.index(text.size());
      const std::size_t len = std::min<std::size_t>(1 + rng.uniform(16),
                                                    text.size() - at);
      for (std::size_t i = 0; i < len; ++i) {
        text[at + i] = static_cast<char>(rng.uniform(256));
      }
      break;
    }
    case 7: {  // re-render one record with its members reordered: result
               // first, original sum kept — still a valid record
      const std::size_t begin = line_starts[rng.index(line_starts.size())];
      const std::size_t end = std::min(text.find('\n', begin), text.size());
      const std::string_view line(text.data() + begin, end - begin);
      static constexpr std::string_view kOrder[] = {"result", "key", "sum", "stage", "task"};
      std::string_view values[std::size(kOrder)];
      JsonReader in(line);
      auto take = [&](std::string_view name) {  // the first of each member
        const std::string_view* it = std::find(std::begin(kOrder), std::end(kOrder), name);
        if (it != std::end(kOrder) && values[it - kOrder].empty()) in.skip(values[it - kOrder]);
      };
      if (!in.object(take) || !in.finish()) break;
      std::string reordered;
      for (std::size_t i = 0; i < std::size(kOrder); ++i) {
        if (values[i].empty()) return;
        reordered += i == 0 ? "{\"" : ",\"";
        reordered += kOrder[i];
        reordered += "\":";
        reordered += values[i];
      }
      text.replace(begin, end - begin, reordered + "}");
      break;
    }
    case 8: {  // escape one letter of the "key" member name — a record the
               // loader skips, so its task re-executes
      const std::size_t begin = line_starts[rng.index(line_starts.size())];
      if (text.compare(begin, 7, "{\"key\":") != 0) break;
      static constexpr const char* kEscapes[] = {"\\u006b", "\\u0065", "\\u0079"};
      const std::size_t letter = rng.uniform(3);
      text.replace(begin + 2 + letter, 1, kEscapes[letter]);
      break;
    }
  }
}

}  // namespace

void run_cache_replay_case(CaseContext& ctx) {
  const Golden& g = golden();
  if (!g.ok) {
    ctx.fail("cache-replay/golden", "golden cold campaign did not complete");
    return;
  }

  std::string damaged = g.cache_text;
  for (int i = 0; i < std::max(1, ctx.budget); ++i) corrupt(damaged, ctx.rng);

  const std::string path =
      scratch_path("case-" + std::to_string(ctx.case_seed));
  std::remove(path.c_str());
  if (!write_file(path, damaged)) {
    ctx.fail("cache-replay/io", "could not write scratch cache file " + path);
    return;
  }

  try {
    // Half the cases (by seed) load the damaged cache and re-execute on a
    // small pool, so corruptions reach both the inline and the threaded
    // load.
    campaign::RunControl control;
    control.threads = ctx.case_seed % 2 == 0 ? 0 : 2;
    control.cache_path = path;
    const campaign::CampaignResult warm = campaign::run(golden_spec(), control);
    ctx.expect(warm.complete, "cache-replay/complete",
               "warm run against a damaged cache did not complete");
    ctx.expect(warm.to_jsonl() == g.jsonl, "cache-replay/jsonl",
               "warm-run records differ from the cold run (damaged bytes "
               "leaked into output or a record was lost)");
    ctx.expect(warm.summary_json() == g.summary, "cache-replay/summary",
               "warm-run summary differs from the cold run");
  } catch (const std::exception& e) {
    ctx.fail("cache-replay/crash",
             std::string("campaign crashed on a damaged cache: ") + e.what());
  }
  std::remove(path.c_str());
}

}  // namespace cen::check

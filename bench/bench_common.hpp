// Shared plumbing for the reproduction experiments (`cenrepro`): the
// pipeline presets, the memo that runs each shared pipeline once, the
// experiment signature, and small table-printing helpers.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/pipeline.hpp"

namespace bench {

using namespace cen;

/// The pipeline option sets the experiments share. `kTrace11`/`kTrace5`
/// run CenTrace alone (11 or 5 repetitions); `kBanners` adds CenProbe;
/// `kFuzz60`/`kFuzz90` run every stage and fuzz up to 60 or 90 endpoints.
enum class Preset { kTrace11, kTrace5, kBanners, kFuzz60, kFuzz90 };

inline scenario::PipelineOptions preset_options(Preset p) {
  scenario::PipelineOptions o;
  o.centrace_repetitions = p == Preset::kTrace11 ? 11 : 5;
  o.run_banner = p != Preset::kTrace11 && p != Preset::kTrace5;
  o.run_fuzz = p == Preset::kFuzz60 || p == Preset::kFuzz90;
  o.fuzz_max_endpoints = p == Preset::kFuzz90 ? 90 : 60;
  o.threads = 0;  // inline: results match every thread count, at less CPU
  return o;
}

template <class Scenario>
struct Run {
  Scenario scenario;
  scenario::PipelineResult result;
};

/// Hands out each (site, preset) pipeline run, computing it on first use,
/// so experiments that share a preset share its runs. It holds one
/// preset's runs at a time: asking for another preset drops them and the
/// references handed out for them.
class Memo {
 public:
  const Run<scenario::CountryScenario>& country(scenario::Country c, Preset p) {
    auto& run = use(p).countries_[static_cast<std::size_t>(c)];
    if (!run) {
      run.reset(new Run<scenario::CountryScenario>{
          scenario::make_country(c, scenario::Scale::kFull), {}});
      run->result = scenario::run_country_pipeline(run->scenario, preset_options(p));
    }
    return *run;
  }

  const Run<scenario::WorldScenario>& world(Preset p) {
    auto& run = use(p).world_;
    if (!run) {
      run.reset(new Run<scenario::WorldScenario>{
          scenario::make_world(scenario::Scale::kFull), {}});
      run->result = scenario::run_world_pipeline(run->scenario, preset_options(p));
    }
    return *run;
  }

 private:
  Memo& use(Preset p) {
    if (p != preset_) {
      for (auto& run : countries_) run.reset();
      world_.reset();
      preset_ = p;
    }
    return *this;
  }

  Preset preset_ = Preset::kTrace11;
  std::unique_ptr<Run<scenario::CountryScenario>> countries_[4];
  std::unique_ptr<Run<scenario::WorldScenario>> world_;
};

/// The numbers an experiment computed, by name; its claims read them.
using Numbers = std::map<std::string, double>;

/// An experiment prints its text to stdout and records its numbers.
using Experiment = void(Memo&, Numbers&);
Experiment table1_centrace, fig3_blocking_dist, fig4_inpath_onpath, quoted_packets,
    baseline_attribution, fig10_12_paths, table_banners, filtermap, fig5_fuzz_success,
    fig9_feature_importance, vendor_correlation, fig6_clusters, fig2_modes,
    table2_strategies, circumvention, fig7_8_grammar, baseline_geneva, baseline_disguiser,
    ext_dns, path_variance, ablation_repeats, ablation_wait, fault_matrix;

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

inline std::string pct(double num, double den) {
  if (den == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * num / den);
  return buf;
}

}  // namespace bench

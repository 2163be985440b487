// cen cluster — run the full measurement pipeline over one or more
// built-in scenarios and cluster the blocked endpoints (paper §7).
#include "cli.hpp"
#include "ml/dbscan.hpp"
#include "ml/random_forest.hpp"

using namespace cen;
using namespace cli;

int cli::run_cluster(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string export_path = args.get("export");
  scenario::PipelineOptions o = pipeline_options(ctx);
  o.fuzz_max_endpoints = args.value("fuzz-cap", 40);

  std::vector<ml::EndpointMeasurement> all;
  for (const std::string& code :
       split(args.get("countries", "AZ,BY,KZ,RU"), ',')) {
    scenario::CountryScenario s =
        scenario::make_country(parse_country(code), ctx.common.scale);
    scenario::PipelineResult r = run_country_pipeline(s, o);
    std::fprintf(stderr, "%s: %zu blocked endpoints\n", code.c_str(),
                 r.measurements.size());
    for (auto& m : r.measurements) {
      if (m.fuzz) all.push_back(std::move(m));
    }
  }
  if (all.empty()) {
    std::printf("no blocked endpoints with fuzz data — nothing to cluster\n");
    return kExitOk;
  }

  ml::FeatureMatrix fm = ml::extract_features(all);
  if (!export_path.empty()) {
    if (!write_file(export_path, ml::to_csv(fm))) return kExitRuntime;
    std::fprintf(stderr, "wrote %zu feature rows to %s\n", fm.n_rows(), export_path.c_str());
  }
  ml::impute_median(fm);

  // Supervised top-k feature selection when enough labels exist.
  std::size_t top_k = static_cast<std::size_t>(args.value("top-k", 10));
  std::vector<std::size_t> labelled;
  for (std::size_t i = 0; i < fm.n_rows(); ++i) {
    if (!fm.labels[i].empty()) labelled.push_back(i);
  }
  ml::FeatureMatrix working = fm;
  if (labelled.size() >= 10) {
    ml::Matrix x;
    std::vector<std::string> labels;
    for (std::size_t i : labelled) {
      x.push_back(fm.rows[i]);
      labels.push_back(fm.labels[i]);
    }
    std::vector<int> y;
    std::vector<std::string> classes = ml::encode_labels(labels, y);
    ml::ImportanceResult imp =
        ml::cross_validated_importance(x, y, static_cast<int>(classes.size()));
    working = ml::select_features(fm, ml::top_k_features(imp.importance, top_k));
  }
  ml::standardize(working);
  double eps = ml::estimate_epsilon(working.rows, 4);
  ml::DbscanResult clusters = ml::dbscan(working.rows, eps, 4);

  std::printf("%zu endpoints, %zu features, eps=%.3f -> %d clusters\n",
              working.n_rows(), working.n_features(), eps, clusters.n_clusters);
  for (int cl = -1; cl < clusters.n_clusters; ++cl) {
    std::map<std::string, int> by_country, by_label;
    int size = 0;
    for (std::size_t i = 0; i < working.n_rows(); ++i) {
      if (clusters.labels[i] != cl) continue;
      ++size;
      by_country[working.countries[i]]++;
      if (!working.labels[i].empty()) by_label[working.labels[i]]++;
    }
    if (size == 0) continue;
    std::printf("cluster %-5s size=%-4d", cl == -1 ? "noise" : std::to_string(cl).c_str(),
                size);
    for (const auto& [cc, n] : by_country) std::printf(" %s:%d", cc.c_str(), n);
    for (const auto& [label, n] : by_label) std::printf("  [%s x%d]", label.c_str(), n);
    std::printf("\n");
  }
  return kExitOk;
}

// Ambiguity-fingerprinting bench: cenambig probe throughput over the
// vendor-lab scenario plus the vendor-separation guard — DBSCAN over the
// discrepancy vectors must recover the exact vendor partition (banners
// are fully dark, so the vectors are the only signal). Exit 1 when the
// partition is wrong or any baseline fails to block.
//
//   ./bench_ambig [output.json]      (default BENCH_ambig.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cenambig/cenambig.hpp"
#include "core/json.hpp"
#include "ml/dbscan.hpp"
#include "ml/features.hpp"
#include "scenario/ambig.hpp"

using namespace cen;

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_ambig.json";

  scenario::AmbigScenario s = scenario::make_ambig();  // 3 vendors x 3

  std::vector<ml::EndpointMeasurement> measurements;
  std::vector<std::string> truth;
  std::size_t probes_sent = 0;

  auto t0 = std::chrono::steady_clock::now();
  bool baselines_ok = true;
  for (const scenario::AmbigDeployment& d : s.deployments) {
    ambig::AmbigRunOptions ropts;
    ropts.client = s.client;
    ropts.endpoint = d.endpoint;
    ropts.test_domain = s.test_domain;
    ropts.control_domain = s.control_domain;
    ropts.seed = 11;
    ambig::AmbigReport report = ambig::run(*s.network, ropts);
    baselines_ok &= report.baseline_blocked;
    probes_sent += report.total_probes_sent;
    ml::EndpointMeasurement em;
    em.endpoint_id = d.endpoint.str();
    em.country = "LAB";
    em.ambig = std::move(report);
    measurements.push_back(std::move(em));
    truth.push_back(d.vendor);
  }
  auto t1 = std::chrono::steady_clock::now();
  const double wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double probes_per_sec =
      wall_ms > 0 ? probes_sent / (wall_ms / 1000.0) : 0.0;

  ml::FeatureMatrix m = ml::extract_features(measurements);
  ml::impute_median(m);
  ml::standardize(m);
  ml::DbscanResult clusters = ml::dbscan(m.rows, /*epsilon=*/0.5, /*min_points=*/2);

  // Accuracy: fraction of endpoint pairs whose same-cluster relation
  // matches the same-vendor relation (Rand index). The guard demands a
  // perfect partition.
  std::size_t agree = 0, pairs = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    for (std::size_t j = i + 1; j < truth.size(); ++j) {
      ++pairs;
      const bool same_vendor = truth[i] == truth[j];
      const bool same_cluster = clusters.labels[i] == clusters.labels[j] &&
                                clusters.labels[i] != ml::kNoise;
      if (same_vendor == same_cluster) ++agree;
    }
  }
  const double rand_index = pairs > 0 ? static_cast<double>(agree) / pairs : 0.0;
  const bool guard_pass = baselines_ok && clusters.n_clusters == 3 &&
                          rand_index == 1.0;

  std::printf("ambig bench (%zu deployments, %zu probes)\n", truth.size(),
              probes_sent);
  std::printf("  sweep:    %8.1f ms  (%.0f probes/s)\n", wall_ms, probes_per_sec);
  std::printf("  clusters: %d (rand index %.3f)\n", clusters.n_clusters, rand_index);
  std::printf("vendor-separation guard (3 clusters, perfect partition): %s\n",
              guard_pass ? "PASS" : "FAIL");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("ambig");
  w.key("deployments").value(static_cast<std::uint64_t>(truth.size()));
  w.key("probes_sent").value(static_cast<std::uint64_t>(probes_sent));
  w.key("wall_ms").value(wall_ms);
  w.key("probes_per_sec").value(probes_per_sec);
  w.key("n_clusters").value(static_cast<std::int64_t>(clusters.n_clusters));
  w.key("rand_index").value(rand_index);
  w.key("guard_pass").value(guard_pass);
  w.end_object();
  std::ofstream(out_path) << w.str() << "\n";
  std::printf("wrote %s\n", out_path);

  return guard_pass ? 0 : 1;
}

// The device-identification experiments: §5.2/§5.3 banners, the FilterMap
// baseline, Figure 5's fuzzing success, Figure 9's feature importance,
// Figure 6's clusters and §7.4's vendor correlations. They read the
// `kBanners`, `kFuzz60` and `kFuzz90` runs of the world and the countries.
#include <algorithm>
#include <numeric>
#include <set>

#include "bench_common.hpp"
#include "cenfuzz/strategies.hpp"
#include "ml/dbscan.hpp"
#include "ml/random_forest.hpp"
#include "ml/stats.hpp"
#include "ml/textsim.hpp"
#include "net/http.hpp"

namespace bench {

namespace {

/// Copies the fuzzed endpoints of `r` (full feature vectors) into `out`.
void add_fuzzed(std::vector<ml::EndpointMeasurement>& out, const scenario::PipelineResult& r) {
  std::copy_if(r.measurements.begin(), r.measurements.end(), std::back_inserter(out),
               [](const ml::EndpointMeasurement& m) { return m.fuzz.has_value(); });
}

/// The rows of `fm` that carry a vendor label, labels encoded as classes.
struct LabelledRows {
  ml::Matrix x;
  std::vector<int> y;
  std::vector<std::string> classes;
};

LabelledRows labelled_rows(const ml::FeatureMatrix& fm) {
  LabelledRows out;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < fm.n_rows(); ++i) {
    if (fm.labels[i].empty()) continue;
    out.x.push_back(fm.rows[i]);
    labels.push_back(fm.labels[i]);
  }
  out.classes = ml::encode_labels(labels, out.y);
  return out;
}

/// Random-forest MDI importance over the labelled rows, 3 x 5-fold
/// cross-validated — the paper's protocol.
ml::ImportanceResult mdi(const LabelledRows& rows, int n_trees) {
  ml::ForestOptions fopts;
  fopts.n_trees = n_trees;
  return ml::cross_validated_importance(rows.x, rows.y, static_cast<int>(rows.classes.size()),
                                        /*repetitions=*/3, /*folds=*/5, fopts);
}

/// Blockpage body from a blocked trace's injected packet, if any.
std::optional<std::string> blockpage_body(const trace::CenTraceReport& t) {
  if (!t.blocked || t.blocking_type != trace::BlockingType::kHttpBlockpage ||
      !t.injected_packet) {
    return std::nullopt;
  }
  auto resp = net::HttpResponse::parse(to_string(t.injected_packet->payload));
  if (!resp) return std::nullopt;
  return resp->body;
}

}  // namespace

// §5.2/§5.3: the banner-grab funnel and vendor identification — on the
// blockpage case study (banner labels must agree with blockpage labels),
// then the vendor census of AZ/BY/KZ/RU.
void table_banners(Memo& memo, Numbers& n) {
  {
    const auto& [w, r] = memo.world(Preset::kBanners);
    std::size_t device_ips = r.device_probes.size();
    std::size_t with_service = 0, labelled = 0, agree = 0, blockpage_labelled = 0;
    std::map<std::uint32_t, std::string> blockpage_label_by_ip;
    for (const auto& t : r.remote_traces) {
      if (t.blocked && t.blockpage_vendor && t.blocking_hop_ip) {
        blockpage_label_by_ip[t.blocking_hop_ip->value()] = *t.blockpage_vendor;
      }
    }
    for (const auto& [ip, probe] : r.device_probes) {
      if (probe.has_any_service()) ++with_service;
      if (probe.vendor) {
        ++labelled;
        auto bp = blockpage_label_by_ip.find(ip);
        if (bp != blockpage_label_by_ip.end()) {
          ++blockpage_labelled;
          if (bp->second == *probe.vendor) ++agree;
        }
      }
    }
    n["endpoints"] = double(w.endpoints.size());
    n["device IPs"] = double(device_ips);
    n["with service"] = double(with_service);
    n["label disagreements"] = double(blockpage_labelled - agree);
    std::printf("endpoints measured:            %zu\n", w.endpoints.size());
    std::printf("in-path device IPs probed:     %zu   (paper: 71 of 76)\n", device_ips);
    std::printf("with >=1 open service:         %zu (%s)   (paper: 62, 87.32%%)\n",
                with_service, pct(double(with_service), double(device_ips)).c_str());
    std::printf("banner identifies firewall:    %zu   (paper: 28)\n", labelled);
    std::printf("banner label == blockpage label: %zu/%zu   (paper: exact match)\n",
                agree, blockpage_labelled);
  }

  header("5.3 Vendor census in AZ / BY / KZ / RU");
  std::map<std::string, std::set<std::string>> vendor_countries;
  std::map<std::string, int> vendor_counts;
  std::size_t total_ips = 0, ips_with_service = 0;
  std::map<std::string, int> blockpage_only;
  for (scenario::Country c : scenario::all_countries()) {
    const scenario::PipelineResult& r = memo.country(c, Preset::kBanners).result;
    total_ips += r.device_probes.size();
    std::set<std::uint32_t> counted;
    for (const auto& [ip, probe] : r.device_probes) {
      if (probe.has_any_service()) ++ips_with_service;
      if (probe.vendor && counted.insert(ip).second) {
        vendor_counts[*probe.vendor]++;
        vendor_countries[*probe.vendor].insert(r.country);
      }
    }
    // Blockpage-only deployments: identified by the injected page though
    // the device exposes no banners.
    std::set<std::uint32_t> bp_ips;
    for (const auto& t : r.remote_traces) {
      if (!t.blocked || !t.blockpage_vendor || !t.blocking_hop_ip) continue;
      std::uint32_t ip = t.blocking_hop_ip->value();
      auto probe = r.device_probes.find(ip);
      bool has_banner_label = probe != r.device_probes.end() && probe->second.vendor;
      if (!has_banner_label && bp_ips.insert(ip).second) {
        blockpage_only[*t.blockpage_vendor]++;
      }
    }
  }
  std::printf("potential device IPs probed: %zu; with >=1 open port: %zu (%s)\n",
              total_ips, ips_with_service,
              pct(double(ips_with_service), double(total_ips)).c_str());
  std::printf("(paper: 163 IPs, 68 with open ports = 41.72%%)\n\n");
  std::printf("%-12s %6s  %-20s  (paper count)\n", "Vendor", "Count", "Countries");
  rule();
  const std::map<std::string, int> paper = {{"Cisco", 7},    {"Fortinet", 5},  {"Kerio", 2},
                                            {"PaloAlto", 2}, {"DDoSGuard", 1}, {"MikroTik", 1},
                                            {"Kaspersky", 1}};
  int total_banner = 0;
  n["census mismatches"] = 0;
  for (const auto& [vendor, count] : vendor_counts) {
    std::string countries;
    for (const std::string& cc : vendor_countries[vendor]) {
      if (!countries.empty()) countries += ",";
      countries += cc;
    }
    int expected = paper.count(vendor) != 0 ? paper.at(vendor) : 0;
    std::printf("%-12s %6d  %-20s  (%d)\n", vendor.c_str(), count, countries.c_str(),
                expected);
    total_banner += count;
    if (count != expected) ++n["census mismatches"];
  }
  rule();
  int bp_only_total = 0;
  for (const auto& [vendor, count] : blockpage_only) {
    std::printf("blockpage-only %-12s %d   (paper: 4 Fortinet)\n", vendor.c_str(), count);
    bp_only_total += count;
  }
  n["census vendors"] = double(vendor_counts.size());
  n["banner deployments"] = total_banner;
  n["blockpage-only deployments"] = bp_only_total;
  std::printf("Total commercial deployments identified: %d banner + %d blockpage-only"
              " = %d   (paper: 19 + 4 = 23)\n",
              total_banner, bp_only_total, total_banner + bp_only_total);
}

// Related-work baseline (§3.3): FilterMap-style clustering of injected
// blockpages — it works on the worldwide blockpage study, but most devices
// in the four countries drop packets or inject bare resets.
void filtermap(Memo& memo, Numbers& n) {
  {
    std::vector<std::string> pages;
    std::vector<std::string> truth;
    for (const auto& t : memo.world(Preset::kBanners).result.remote_traces) {
      if (auto body = blockpage_body(t)) {
        pages.push_back(*body);
        truth.push_back(t.blockpage_vendor.value_or("?"));
      }
    }
    ml::TextClusterResult clusters = ml::cluster_documents(pages, 4, 0.7);
    std::printf("worldwide study: %zu blockpages -> %d clusters\n", pages.size(),
                clusters.n_clusters);
    std::map<int, std::map<std::string, int>> composition;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      composition[clusters.labels[i]][truth[i]]++;
    }
    int pure = 0;
    for (const auto& [cluster, vendors] : composition) {
      std::printf("  cluster %d:", cluster);
      for (const auto& [vendor, count] : vendors) std::printf(" %s x%d", vendor.c_str(), count);
      std::printf("\n");
      if (vendors.size() == 1) ++pure;
    }
    n["impure clusters"] = clusters.n_clusters - pure;
    std::printf("vendor-pure clusters: %d/%d (FilterMap works where pages exist)\n",
                pure, clusters.n_clusters);
  }

  rule();
  std::size_t blocked_total = 0, with_blockpage = 0;
  for (scenario::Country c : scenario::all_countries()) {
    const scenario::PipelineResult& r = memo.country(c, Preset::kBanners).result;
    std::size_t country_pages = 0;
    for (const auto& t : r.remote_traces) {
      if (!t.blocked) continue;
      ++blocked_total;
      if (blockpage_body(t)) {
        ++with_blockpage;
        ++country_pages;
      }
    }
    std::printf("%s: %zu of %zu blocked CTs carry a blockpage\n", r.country.c_str(),
                country_pages, r.blocked_remote());
  }
  n["blockpage share"] = double(with_blockpage) / blocked_total;
  std::printf("\nTotal: %s of blocked measurements are visible to blockpage\n",
              pct(double(with_blockpage), double(blocked_total)).c_str());
  std::printf("clustering (paper §5.2: only 5 blockpage injections across the four\n");
  std::printf("countries) — the gap that motivates banner grabs (§5) and the\n");
  std::printf("CenFuzz behavioural features (§6).\n");
}

// Figure 5: percentage of CenFuzz measurements per strategy that evade
// censorship, per country, plus §6.3's per-method evasion rates and pad
// directionality.
void fig5_fuzz_success(Memo& memo, Numbers& n) {
  struct Tally {
    int successful = 0, total = 0;  // total leaves out untestable measurements
    void add(bool evaded) { ++total; successful += evaded; }
    double rate() const { return total == 0 ? 0.0 : 100.0 * successful / total; }
  };
  // tallies[strategy][country], plus permutation-level tallies for §6.3.
  std::map<std::string, std::map<std::string, Tally>> tallies;
  std::map<std::string, Tally> permutation_tallies;
  std::vector<std::string> countries;
  for (scenario::Country c : scenario::all_countries()) {
    const scenario::PipelineResult& r = memo.country(c, Preset::kFuzz60).result;
    countries.push_back(r.country);
    for (const auto& m : r.measurements) {
      if (!m.fuzz) continue;
      for (const auto& f : m.fuzz->measurements) {
        if (f.outcome == fuzz::FuzzOutcome::kUntestable) continue;
        bool evaded = f.outcome == fuzz::FuzzOutcome::kSuccessful;
        tallies[f.strategy][r.country].add(evaded);
        if (f.strategy == "Get Word Alt." || f.strategy == "Hostname Pad.") {
          permutation_tallies[f.strategy + "/" + f.permutation].add(evaded);
        }
      }
    }
  }

  std::printf("%-26s", "Strategy");
  for (const std::string& c : countries) std::printf(" %6s", c.c_str());
  std::printf("\n");
  rule();
  std::vector<std::string> order{"Normal"};
  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    order.push_back(info.name);
  }
  for (const std::string& name : order) {
    std::printf("%-26s", name.c_str());
    double& max_rate = n[name + " max"];
    for (const std::string& c : countries) {
      const Tally& t = tallies[name][c];
      if (t.total == 0) {
        std::printf(" %6s", "-");
      } else {
        std::printf(" %5.1f%%", t.rate());
      }
      max_rate = std::max(max_rate, t.rate());
    }
    std::printf("\n");
  }

  rule();
  auto print_permutations = [&](const char* strategy, std::initializer_list<const char*> perms) {
    for (const char* perm : perms) {
      const Tally& t = permutation_tallies[strategy + std::string("/") + perm];
      std::printf("  %-8s %5.1f%%  (%d/%d)\n", perm, t.rate(), t.successful, t.total);
      n[perm] = t.rate();
    }
  };
  std::printf("Per-method evasion (paper: POST 1.76%%, PUT 21.63%%, PATCH 82.15%%,\n");
  std::printf("empty 92.01%%):\n");
  print_permutations("Get Word Alt.", {"POST", "PUT", "PATCH", "DELETE", "HEAD", "<empty>"});
  std::printf("Pad directionality (paper: leading pads mostly blocked, trailing\n");
  std::printf("pads mostly evade):\n");
  print_permutations("Hostname Pad.", {"1*host*0", "2*host*0", "0*host*1", "0*host*2", "3*host*3"});
}

// Figure 9 / §7.2: random-forest MDI feature importance over the labelled
// deployments of the worldwide blockpage study and the four countries
// (Table 3's "labels from blockpages / labels from banners").
void fig9_feature_importance(Memo& memo, Numbers& n) {
  std::vector<ml::EndpointMeasurement> pooled;
  add_fuzzed(pooled, memo.world(Preset::kFuzz60).result);
  for (scenario::Country c : scenario::all_countries()) {
    add_fuzzed(pooled, memo.country(c, Preset::kFuzz60).result);
  }
  ml::FeatureMatrix fm = ml::extract_features(pooled);
  ml::impute_median(fm);
  LabelledRows rows = labelled_rows(fm);
  std::printf("labelled deployments: %zu of %zu blocked endpoints, %zu features\n\n",
              rows.x.size(), fm.n_rows(), fm.n_features());
  ml::ImportanceResult imp = mdi(rows, 100);

  std::printf("cross-validated accuracy: %.1f%%  (%zu classes: ",
              100.0 * imp.cv_accuracy, rows.classes.size());
  for (const std::string& c : rows.classes) std::printf("%s ", c.c_str());
  std::printf(")\n\n%-26s %8s\n", "Feature", "MDI");
  rule();
  std::vector<std::size_t> order = ml::top_k_features(imp.importance, fm.n_features());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    std::size_t f = order[rank];
    n[fm.feature_names[f]] = imp.importance[f];
    n[fm.feature_names[f] + " rank"] = double(rank + 1);
    if (imp.importance[f] < 1e-6) continue;
    std::printf("%-26s %8.4f\n", fm.feature_names[f].c_str(), imp.importance[f]);
  }
  rule();
  std::printf("Paper: CensorResponse is the most important feature, followed by\n");
  std::printf("hostname/SNI mutation outcomes and InjectedIPTTL; Capitalize\n");
  std::printf("strategies, version alternation and client certificates carry\n");
  std::printf("almost no signal.\n");
}

// Figure 6 / §7.3-§7.4: DBSCAN clustering of blocked endpoints in
// AZ/BY/KZ/RU on the top-10 features, with the ε chosen by the
// k-nearest-neighbour heuristic.
void fig6_clusters(Memo& memo, Numbers& n) {
  std::vector<ml::EndpointMeasurement> all;
  // Ground truth keyed by (country, mgmt ip) — the 10.0.0.0/8 lab space is
  // reused per country, so bare IPs would collide.
  std::map<std::pair<std::string, std::uint32_t>, std::string> truth_by_mgmt_ip;
  for (scenario::Country c : scenario::all_countries()) {
    const auto& [s, r] = memo.country(c, Preset::kFuzz90);
    for (const scenario::DeviceTruth& d : s.devices) {
      if (!d.on_path) truth_by_mgmt_ip[{r.country, d.mgmt_ip.value()}] = d.vendor;
    }
    add_fuzzed(all, r);  // cluster the endpoints we fuzzed
  }
  ml::FeatureMatrix fm = ml::extract_features(all);
  ml::impute_median(fm);

  // §7.3: pick the top-10 features by supervised MDI over labelled rows.
  std::vector<std::size_t> top10;
  if (LabelledRows rows = labelled_rows(fm); rows.x.size() >= 10) {
    top10 = ml::top_k_features(mdi(rows, 60).importance, 10);
  } else {
    for (std::size_t f = 0; f < std::min<std::size_t>(10, fm.n_features()); ++f) {
      top10.push_back(f);
    }
  }
  std::printf("clustering %zu endpoints on features:", fm.n_rows());
  for (std::size_t f : top10) std::printf(" %s", fm.feature_names[f].c_str());
  std::printf("\n");

  ml::FeatureMatrix sub = ml::select_features(fm, top10);
  ml::standardize(sub);
  double eps = ml::estimate_epsilon(sub.rows, 4);
  // The paper's ε=1.2 was derived on its own scale; we use the same
  // k-distance heuristic on ours.
  ml::DbscanResult clusters = ml::dbscan(sub.rows, eps, 4);
  std::printf("epsilon (4-NN heuristic): %.3f -> %d clusters (+ noise)\n\n", eps,
              clusters.n_clusters);

  std::printf("%-8s %6s | %4s %4s %4s %4s | %s\n", "Cluster", "Size", "AZ", "BY", "KZ",
              "RU", "vendor labels seen");
  rule();
  int same_country_members = 0, total_members = 0;
  int cross_country_clusters = 0;
  for (int cl = -1; cl < clusters.n_clusters; ++cl) {
    std::map<std::string, int> by_country;
    std::map<std::string, int> by_label;
    int size = 0;
    for (std::size_t i = 0; i < sub.n_rows(); ++i) {
      if (clusters.labels[i] != cl) continue;
      ++size;
      by_country[sub.countries[i]]++;
      if (!sub.labels[i].empty()) by_label[sub.labels[i]]++;
    }
    if (size == 0) continue;
    std::string label_str;
    for (const auto& [l, count] : by_label) {
      label_str += l + "(" + std::to_string(count) + ") ";
    }
    std::printf("%-8s %6d | %4d %4d %4d %4d | %s\n",
                cl == -1 ? "noise" : std::to_string(cl).c_str(), size, by_country["AZ"],
                by_country["BY"], by_country["KZ"], by_country["RU"], label_str.c_str());
    if (cl >= 0) {
      int dominant = std::max(std::max(by_country["AZ"], by_country["BY"]),
                              std::max(by_country["KZ"], by_country["RU"]));
      same_country_members += dominant;
      total_members += size;
      int countries_present = 0;
      for (const auto& [cc, count] : by_country) {
        if (count > 0) ++countries_present;
      }
      if (countries_present > 1) ++cross_country_clusters;
    }
  }
  n["same-country share"] = double(same_country_members) / total_members;
  n["cross-country clusters"] = cross_country_clusters;
  rule();
  std::printf("Endpoints in their cluster's dominant country: %s (paper: 69%% form\n",
              pct(same_country_members, total_members).c_str());
  std::printf("tight same-country clusters); cross-country clusters: %d (paper\n",
              cross_country_clusters);
  std::printf("observes a few, e.g. clusters 3, 5, 6, 15 — same-vendor devices\n");
  std::printf("deployed in different countries).\n");

  // §7.1's forward application: classify the deployments that expose no
  // banner and no blockpage (e.g. the management-firewalled RU Cisco) with
  // a forest trained on the labelled ones — behaviour-only features, since
  // banner features are definitionally absent for the targets.
  std::vector<std::size_t> behaviour_features;
  for (std::size_t f = 0; f < fm.n_features(); ++f) {
    if (fm.feature_names[f].rfind("OpenPort", 0) == 0) continue;
    behaviour_features.push_back(f);
  }
  ml::FeatureMatrix behav = ml::select_features(fm, behaviour_features);
  LabelledRows train = labelled_rows(behav);
  std::vector<std::size_t> train_idx(train.x.size());
  std::iota(train_idx.begin(), train_idx.end(), 0);
  ml::ForestOptions fopts;
  fopts.n_trees = 60;
  ml::RandomForest forest(fopts);
  forest.fit(train.x, train.y, train_idx, static_cast<int>(train.classes.size()));

  int dark_total = 0, dark_correct = 0;
  for (std::size_t i = 0; i < behav.n_rows(); ++i) {
    if (!behav.labels[i].empty()) continue;
    const trace::CenTraceReport& t = all[i].trace;
    if (t.blocking_hop_ip == std::nullopt) continue;
    auto truth = truth_by_mgmt_ip.find({all[i].country, t.blocking_hop_ip->value()});
    // Only judge devices that genuinely ARE a commercial product in the
    // ground truth (unattributed ISP systems have no true vendor).
    if (truth == truth_by_mgmt_ip.end() || truth->second.empty()) continue;
    ++dark_total;
    int predicted = forest.predict(behav.rows[i]);
    if (train.classes[static_cast<std::size_t>(predicted)] == truth->second) ++dark_correct;
  }
  n["dark endpoints"] = dark_total;
  n["dark endpoints labelled"] = dark_correct;
  rule();
  std::printf("§7.1 forward application: classifying the banner-less, blockpage-\n");
  std::printf("less deployments from behaviour alone: %d/%d endpoints behind the\n",
              dark_correct, dark_total);
  std::printf("management-firewalled Cisco correctly labelled 'Cisco'.\n");
}

// §7.4: Spearman rank correlations of feature vectors between deployments —
// same-vendor pairs must correlate strongly (Fortinet rho=1.00, Cisco
// rho>0.78, Kerio rho=0.98 in the paper), cross-vendor pairs weakly.
void vendor_correlation(Memo& memo, Numbers& n) {
  std::vector<ml::EndpointMeasurement> all;
  for (scenario::Country c : scenario::all_countries()) {
    add_fuzzed(all, memo.country(c, Preset::kFuzz60).result);
  }
  ml::FeatureMatrix fm = ml::extract_features(all);
  ml::impute_median(fm);

  // Group labelled rows by vendor (endpoint rows behind the same device are
  // identical by construction, like the paper's per-deployment view).
  std::map<std::string, std::vector<std::size_t>> by_vendor;
  for (std::size_t i = 0; i < fm.n_rows(); ++i) {
    if (!fm.labels[i].empty()) by_vendor[fm.labels[i]].push_back(i);
  }

  auto avg_corr = [&](const std::vector<std::size_t>& a,
                      const std::vector<std::size_t>& b, bool same) {
    double rho_sum = 0.0, p_sum = 0.0;
    int pairs = 0;
    for (std::size_t i : a) {
      for (std::size_t j : b) {
        if (same && j <= i) continue;
        ml::Correlation c = ml::spearman(fm.rows[i], fm.rows[j]);
        rho_sum += c.rho;
        p_sum += c.p_value;
        ++pairs;
      }
    }
    return std::make_pair(pairs == 0 ? 0.0 : rho_sum / pairs, pairs == 0 ? 1.0 : p_sum / pairs);
  };

  std::printf("%-24s %8s %8s %6s\n", "Pair", "avg rho", "avg p", "pairs");
  rule();
  std::vector<std::string> vendors;
  n["min same-vendor rho"] = 1.0;
  for (const auto& [v, rows] : by_vendor) {
    if (rows.size() >= 2) {
      auto [rho, p] = avg_corr(rows, rows, true);
      std::printf("%-24s %8.3f %8.4f %6zu\n", (v + " vs " + v).c_str(), rho, p,
                  rows.size() * (rows.size() - 1) / 2);
      n[v + " vs " + v] = rho;
      n["min same-vendor rho"] = std::min(n["min same-vendor rho"], rho);
    }
    vendors.push_back(v);
  }
  rule();
  for (std::size_t i = 0; i < vendors.size(); ++i) {
    for (std::size_t j = i + 1; j < vendors.size(); ++j) {
      auto [rho, p] = avg_corr(by_vendor[vendors[i]], by_vendor[vendors[j]], false);
      std::printf("%-24s %8.3f %8.4f\n",
                  (vendors[i] + " vs " + vendors[j]).c_str(), rho, p);
      n["max cross-vendor rho"] = std::max(n["max cross-vendor rho"], rho);
    }
  }
  rule();
  std::printf("Paper: Fortinet-Fortinet rho=1.00, Cisco-Cisco rho>0.78,\n");
  std::printf("Kerio-Kerio rho=0.98, Fortinet-Cisco rho=0.56 — same-vendor\n");
  std::printf("deployments correlate much more strongly than cross-vendor pairs.\n");
}

}  // namespace bench

// Ambiguity-fingerprinting acceptance (ISSUE 9): probe construction,
// segment-reassembly quirk semantics at the device, golden per-vendor
// discrepancy vectors over the vendor-lab scenario, byte-identity of the
// reports across thread counts (with and without a non-inert FaultPlan),
// JSON round-trips, and vendor recovery through DBSCAN with banners fully
// dark.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cenambig/cenambig.hpp"
#include "censor/device.hpp"
#include "core/thread_pool.hpp"
#include "ml/dbscan.hpp"
#include "ml/features.hpp"
#include "net/http.hpp"
#include "net/packet.hpp"
#include "netsim/faults.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/ambig.hpp"

using namespace cen;

namespace {

constexpr const char* kForbidden = "www.blocked.example";

/// Replay one probe's segments straight into a Device (no network), the
/// way an inline tap sees them: one PSH|ACK packet per segment, seq =
/// base + offset. Returns whether any segment triggered the rules.
bool device_triggers(censor::Device& device,
                     const std::vector<sim::SegmentSpec>& segments) {
  constexpr std::uint32_t kBase = 5000;
  bool triggered = false;
  SimTime now = 0;
  for (const sim::SegmentSpec& seg : segments) {
    net::Packet pkt = net::make_tcp_packet(
        net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 9, 9, 9), 40001, 80,
        net::TcpFlags::kPsh | net::TcpFlags::kAck, kBase + seg.offset, 1, seg.bytes,
        seg.ttl);
    pkt.checksum_ok = !seg.bad_checksum;
    triggered |= device.inspect(pkt, now).triggered;
    now += 10;
  }
  return triggered;
}

censor::Device make_device(censor::ReassemblyQuirks quirks) {
  censor::DeviceConfig cfg;
  cfg.id = "test-device";
  censor::RuleSet rules;
  rules.add("blocked.example", censor::MatchStyle::kSuffix);
  cfg.http_rules = rules;
  cfg.sni_rules = rules;
  cfg.reassembly = quirks;
  return censor::Device(cfg);
}

std::string benign_twin() {
  return ambig::pad_domain("www.example.org", std::string(kForbidden).size());
}

/// Map device-id -> discrepancy vector for every deployment of a fresh
/// vendor-lab world. Hermetic: builds its own network, so it can run on
/// any thread.
std::map<std::string, ambig::AmbigReport> run_vendor_lab(int per_vendor,
                                                         std::uint64_t tool_seed,
                                                         const sim::FaultPlan* faults) {
  scenario::AmbigScenarioOptions sopts;
  sopts.deployments_per_vendor = per_vendor;
  scenario::AmbigScenario s = scenario::make_ambig(sopts);
  if (faults != nullptr) s.network->set_fault_plan(*faults);

  std::map<std::string, ambig::AmbigReport> out;
  for (const scenario::AmbigDeployment& d : s.deployments) {
    ambig::AmbigRunOptions ropts;
    ropts.client = s.client;
    ropts.endpoint = d.endpoint;
    ropts.test_domain = s.test_domain;
    ropts.control_domain = s.control_domain;
    ropts.seed = tool_seed;
    out.emplace(d.device_id, ambig::run(*s.network, ropts));
  }
  return out;
}

std::string vector_str(const std::vector<double>& v) {
  std::string out;
  for (double bit : v) {
    if (!out.empty()) out += ',';
    out += std::isnan(bit) ? "nan" : std::to_string(static_cast<int>(bit));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- probes --

TEST(AmbigProbes, CatalogueIsStable) {
  const auto& cat = ambig::probe_catalogue();
  ASSERT_EQ(cat.size(), 9u);
  EXPECT_EQ(cat.front().kind, ambig::ProbeKind::kBaselineForbidden);
  std::set<std::string> names;
  for (const ambig::ProbeSpec& p : cat) names.insert(std::string(p.name));
  EXPECT_EQ(names.size(), cat.size()) << "probe names must be unique";
  // Exactly one probe is TLS-shaped; only the TTL insertion needs a
  // measured distance.
  int https = 0, needs_ttl = 0;
  for (const ambig::ProbeSpec& p : cat) {
    https += p.https ? 1 : 0;
    needs_ttl += p.needs_insertion_ttl ? 1 : 0;
  }
  EXPECT_EQ(https, 1);
  EXPECT_EQ(needs_ttl, 1);
}

TEST(AmbigProbes, PadDomainKeepsSuffixAndLength) {
  std::string padded = ambig::pad_domain("www.example.org", 19);
  EXPECT_EQ(padded.size(), 19u);
  EXPECT_EQ(padded.substr(padded.size() - 11), "example.org");
  EXPECT_EQ(padded.substr(0, 4), "wwww");
  // Already long enough: unchanged.
  EXPECT_EQ(ambig::pad_domain(kForbidden, 4), kForbidden);
}

TEST(AmbigProbes, SplitHostReassemblesToOneRequest) {
  auto segs = ambig::build_segments(ambig::ProbeKind::kSplitHost, kForbidden,
                                    benign_twin(), -1);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].offset, 0u);
  EXPECT_EQ(segs[1].offset, segs[0].bytes.size());
  std::string whole(segs[0].bytes.begin(), segs[0].bytes.end());
  whole.append(segs[1].bytes.begin(), segs[1].bytes.end());
  EXPECT_NE(whole.find(std::string("Host: ") + kForbidden), std::string::npos);
  EXPECT_EQ(whole.substr(whole.size() - 4), "\r\n\r\n");
  // The header *name* is what the split divides: neither half alone
  // carries a complete "Host: " header for a per-segment classifier.
  std::string a(segs[0].bytes.begin(), segs[0].bytes.end());
  std::string b(segs[1].bytes.begin(), segs[1].bytes.end());
  EXPECT_EQ(a.find(kForbidden), std::string::npos);
  EXPECT_EQ(b.find("Host:"), std::string::npos);
}

TEST(AmbigProbes, OverlapShapesDifferOnlyInOrder) {
  const std::string filler = benign_twin();
  auto first = ambig::build_segments(ambig::ProbeKind::kOverlapFirst, kForbidden,
                                     filler, -1);
  auto last = ambig::build_segments(ambig::ProbeKind::kOverlapLast, kForbidden,
                                    filler, -1);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(last.size(), 3u);
  // Overlap: the second segment rewrites bytes inside the first.
  EXPECT_LT(last[1].offset, last[0].bytes.size());
  EXPECT_LT(first[1].offset, first[0].bytes.size());
  // Both domains are byte-interchangeable (equal length), so the two wire
  // shapes are identical except for which domain rides where.
  EXPECT_EQ(filler.size(), std::string(kForbidden).size());
}

TEST(AmbigProbes, InsertionShapesCarryTheDecoyMarkers) {
  auto ttl = ambig::build_segments(ambig::ProbeKind::kInsertionTtl, kForbidden,
                                   benign_twin(), 3);
  auto sum = ambig::build_segments(ambig::ProbeKind::kInsertionChecksum, kForbidden,
                                   benign_twin(), -1);
  int low_ttl = 0, bad_sum = 0;
  for (const auto& s : ttl) low_ttl += (s.ttl == 3) ? 1 : 0;
  for (const auto& s : sum) bad_sum += s.bad_checksum ? 1 : 0;
  EXPECT_EQ(low_ttl, 1) << "exactly one TTL-limited decoy";
  EXPECT_EQ(bad_sum, 1) << "exactly one corrupt-checksum decoy";
  // The decoy carries the forbidden domain; the rest never does.
  for (const auto& s : sum) {
    std::string text(s.bytes.begin(), s.bytes.end());
    if (s.bad_checksum) {
      EXPECT_NE(text.find(kForbidden), std::string::npos);
    } else {
      EXPECT_EQ(text.find(kForbidden), std::string::npos);
    }
  }
}

// ---------------------------------------------------------------- device --

TEST(AmbigDevice, SplitRequestNeedsReassembly) {
  auto segs = ambig::build_segments(ambig::ProbeKind::kSplitHost, kForbidden,
                                    benign_twin(), -1);
  censor::Device inert = make_device(censor::inert_reassembly());
  censor::ReassemblyQuirks none;
  none.reassembles = false;
  censor::Device stateless = make_device(none);
  EXPECT_TRUE(device_triggers(inert, segs));
  EXPECT_FALSE(device_triggers(stateless, segs));
}

TEST(AmbigDevice, OverlapPolicyDecidesWhichDomainWins) {
  const std::string filler = benign_twin();
  censor::ReassemblyQuirks lastwins;
  lastwins.overlap = censor::OverlapPolicy::kLastWins;

  // Forbidden written first, benign overwrite: only first-wins triggers.
  auto forbidden_first = ambig::build_segments(ambig::ProbeKind::kOverlapFirst,
                                               kForbidden, filler, -1);
  censor::Device fw1 = make_device(censor::inert_reassembly());
  censor::Device lw1 = make_device(lastwins);
  EXPECT_TRUE(device_triggers(fw1, forbidden_first));
  EXPECT_FALSE(device_triggers(lw1, forbidden_first));

  // Benign written first, forbidden overwrite: only last-wins triggers.
  auto forbidden_last = ambig::build_segments(ambig::ProbeKind::kOverlapLast,
                                              kForbidden, filler, -1);
  censor::Device fw2 = make_device(censor::inert_reassembly());
  censor::Device lw2 = make_device(lastwins);
  EXPECT_FALSE(device_triggers(fw2, forbidden_last));
  EXPECT_TRUE(device_triggers(lw2, forbidden_last));
}

TEST(AmbigDevice, OutOfOrderBufferingIsAQuirk) {
  auto segs = ambig::build_segments(ambig::ProbeKind::kOutOfOrder, kForbidden,
                                    benign_twin(), -1);
  censor::Device inert = make_device(censor::inert_reassembly());
  censor::ReassemblyQuirks strict;
  strict.buffers_out_of_order = false;
  censor::Device inorder_only = make_device(strict);
  EXPECT_TRUE(device_triggers(inert, segs));
  EXPECT_FALSE(device_triggers(inorder_only, segs));
}

TEST(AmbigDevice, ChecksumValidationDiscardsTheDecoy) {
  auto segs = ambig::build_segments(ambig::ProbeKind::kInsertionChecksum, kForbidden,
                                    benign_twin(), -1);
  censor::Device inert = make_device(censor::inert_reassembly());
  censor::ReassemblyQuirks lax;
  lax.validates_checksum = false;
  censor::Device gullible = make_device(lax);
  EXPECT_FALSE(device_triggers(inert, segs)) << "inert validates checksums";
  EXPECT_TRUE(device_triggers(gullible, segs));
}

TEST(AmbigDevice, TtlConsistencyCheckDiscardsTheDecoy) {
  auto segs = ambig::build_segments(ambig::ProbeKind::kInsertionTtl, kForbidden,
                                    benign_twin(), 3);
  censor::Device inert = make_device(censor::inert_reassembly());
  censor::ReassemblyQuirks paranoid;
  paranoid.ttl_consistency_check = true;
  censor::Device checker = make_device(paranoid);
  EXPECT_TRUE(device_triggers(inert, segs)) << "inert has no TTL plausibility check";
  EXPECT_FALSE(device_triggers(checker, segs));
}

// ------------------------------------------------------------- scenario --

TEST(AmbigScenario, GoldenVendorVectors) {
  // Full 9-bit vectors in catalogue order: [baseline-forbidden,
  // baseline-benign, split-host, tls-split-sni, out-of-order,
  // overlap-first, overlap-last, insertion-ttl, insertion-checksum].
  const std::map<std::string, std::vector<double>> kGolden = {
      {"QuirkTTL", {1, 0, 1, 1, 1, 1, 0, 0, 0}},
      {"QuirkLast", {1, 0, 1, 1, 1, 0, 1, 1, 1}},
      {"QuirkStrict", {1, 0, 1, 1, 0, 1, 0, 1, 0}},
  };

  scenario::AmbigScenarioOptions sopts;
  sopts.deployments_per_vendor = 1;
  scenario::AmbigScenario s = scenario::make_ambig(sopts);
  ASSERT_EQ(s.deployments.size(), 3u);
  for (const scenario::AmbigDeployment& d : s.deployments) {
    ambig::AmbigRunOptions ropts;
    ropts.client = s.client;
    ropts.endpoint = d.endpoint;
    ropts.test_domain = s.test_domain;
    ropts.control_domain = s.control_domain;
    ropts.seed = 77;
    ambig::AmbigReport report = ambig::run(*s.network, ropts);
    EXPECT_TRUE(report.baseline_blocked) << d.device_id;
    EXPECT_GT(report.endpoint_distance, 1) << d.device_id;
    EXPECT_EQ(report.insertion_ttl, report.endpoint_distance - 1) << d.device_id;
    auto golden = kGolden.find(d.vendor);
    ASSERT_NE(golden, kGolden.end()) << d.vendor;
    EXPECT_EQ(vector_str(report.discrepancy_vector()), vector_str(golden->second))
        << d.device_id << " (" << d.vendor << ")";
  }
}

TEST(AmbigScenario, ByteIdenticalAcrossThreadCounts) {
  // Each index is hermetic (its own world + tool seed), so fanning the
  // vendor-lab sweep over any worker count must reproduce the serial
  // bytes exactly. Runs under TSan via the `ambig` ctest label.
  sim::FaultPlan faults;
  faults.default_link.loss = 0.05;

  auto sweep = [&](int threads, const sim::FaultPlan* plan) {
    std::vector<std::string> json(4);
    auto task = [&](int, std::size_t i) {
      auto reports = run_vendor_lab(/*per_vendor=*/1, /*tool_seed=*/100 + i, plan);
      std::string blob;
      for (const auto& [id, report] : reports) blob += report::to_json(report) + "\n";
      json[i] = std::move(blob);
    };
    if (threads == 0) {
      for (std::size_t i = 0; i < json.size(); ++i) task(0, i);
    } else {
      ThreadPool pool(threads);
      pool.parallel_for(json.size(), task);
    }
    std::string all;
    for (const std::string& j : json) all += j;
    return all;
  };

  const sim::FaultPlan* plans[] = {nullptr, &faults};
  for (const sim::FaultPlan* plan : plans) {
    const std::string serial = sweep(0, plan);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(sweep(1, plan), serial);
    EXPECT_EQ(sweep(2, plan), serial);
    EXPECT_EQ(sweep(8, plan), serial);
  }
}

TEST(AmbigScenario, ReportJsonRoundTrips) {
  auto reports = run_vendor_lab(1, 42, nullptr);
  ASSERT_FALSE(reports.empty());
  for (const auto& [id, report] : reports) {
    const std::string json = report::to_json(report);
    auto parsed = report::ambig_report_from_json(json);
    ASSERT_TRUE(parsed.has_value()) << id;
    EXPECT_EQ(report::to_json(*parsed), json) << id;
  }
}

TEST(AmbigScenario, CampaignStageIsThreadIdenticalAndCached) {
  campaign::CampaignSpec spec;
  spec.name = "ambig-stage";
  spec.countries = {scenario::Country::kKZ};
  spec.scale = scenario::Scale::kSmall;
  spec.trace.repetitions = 3;
  spec.max_endpoints = 2;
  spec.max_domains = 1;
  spec.stages.ambig = true;
  spec.ambig_max_endpoints = 2;
  spec.ambig.repetitions = 1;

  std::string jsonl[3];
  const int threads[3] = {0, 2, 8};
  std::size_t ambig_tasks = 0;
  for (int i = 0; i < 3; ++i) {
    campaign::RunControl control;
    control.threads = threads[i];
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete);
    ambig_tasks = r.ambig.tasks;
    jsonl[i] = r.to_jsonl();
  }
  EXPECT_GT(ambig_tasks, 0u);
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(jsonl[0], jsonl[2]);

  // Warm cache: a re-run against the same cache file executes nothing new.
  const std::string cache =
      ::testing::TempDir() + "cendevice_ambig_stage_cache.jsonl";
  std::remove(cache.c_str());
  campaign::RunControl cold;
  cold.cache_path = cache;
  campaign::CampaignResult first = campaign::run(spec, cold);
  ASSERT_TRUE(first.complete);
  campaign::RunControl warm;
  warm.cache_path = cache;
  campaign::CampaignResult second = campaign::run(spec, warm);
  EXPECT_EQ(second.tool_tasks_executed(), 0u);
  EXPECT_GT(second.ambig.cache_hits, 0u);
  EXPECT_EQ(first.to_jsonl(), second.to_jsonl());
  std::remove(cache.c_str());
}

// ----------------------------------------------------------- clustering --

TEST(AmbigClustering, RecoversVendorPartitionWithDarkBanners) {
  // Three vendors, three deployments each, identical rules, no banners,
  // no blockpages: the discrepancy vector is the only vendor signal.
  scenario::AmbigScenario s = scenario::make_ambig();
  ASSERT_EQ(s.deployments.size(), 9u);

  std::vector<ml::EndpointMeasurement> measurements;
  std::vector<std::string> truth;
  for (const scenario::AmbigDeployment& d : s.deployments) {
    ambig::AmbigRunOptions ropts;
    ropts.client = s.client;
    ropts.endpoint = d.endpoint;
    ropts.test_domain = s.test_domain;
    ropts.control_domain = s.control_domain;
    ropts.seed = 7;
    ml::EndpointMeasurement em;
    em.endpoint_id = d.endpoint.str();
    em.country = "LAB";
    em.ambig = ambig::run(*s.network, ropts);
    // No fuzz, no banner, default trace: every non-ambig column is
    // missing or constant.
    measurements.push_back(std::move(em));
    truth.push_back(d.vendor);
  }

  ml::FeatureMatrix m = ml::extract_features(measurements);
  // Banners are fully dark: no measurement carries a vendor label.
  for (const std::string& label : m.labels) EXPECT_TRUE(label.empty());
  ml::impute_median(m);
  ml::standardize(m);
  ml::DbscanResult clusters = ml::dbscan(m.rows, /*epsilon=*/0.5, /*min_points=*/2);
  EXPECT_EQ(clusters.n_clusters, 3);

  // The cluster partition must equal the vendor partition: same vendor
  // <=> same cluster, and nothing is noise.
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NE(clusters.labels[i], ml::kNoise) << m.row_ids[i];
    for (std::size_t j = i + 1; j < truth.size(); ++j) {
      EXPECT_EQ(truth[i] == truth[j], clusters.labels[i] == clusters.labels[j])
          << m.row_ids[i] << " vs " << m.row_ids[j];
    }
  }
}

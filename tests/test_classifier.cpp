// §7.1's payoff, validated end to end: "we can then classify the vendors
// of devices that do not inject blockpages, or do not explicitly display
// their vendor in banner responses". Train a random forest on labelled
// deployments (banners visible), then classify deployments of the same
// vendors with every identifying surface stripped — label must be
// recovered from CenTrace/CenFuzz behaviour alone.
#include <gtest/gtest.h>

#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "ml/features.hpp"
#include "ml/random_forest.hpp"

using namespace cen;

namespace {

/// Measure one lab deployment of `vendor` end to end and return the
/// feature bundle. `strip` removes banners and blockpages (the unlabeled
/// case); `salt` varies IP space so deployments are distinct.
ml::EndpointMeasurement measure_lab(const std::string& vendor, bool strip,
                                    std::uint8_t salt) {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, salt, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, salt, 1, 1));
  sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, salt, 2, 1));
  sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, salt, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, r2);
  topo.add_link(r2, server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 8, {64512, "LAB", "XX"});
  sim::Network net(sim::Topology(topo.build()), std::move(db), salt);
  sim::EndpointProfile profile;
  profile.hosted_domains = {"host.lab.net"};
  net.add_endpoint(server, profile);

  censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "lab-" + vendor);
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  cfg.mgmt_ip = net::Ipv4Address(10, salt, 2, 1);  // the link router's IP
  if (strip) {
    cfg.services.clear();
    if (cfg.action == censor::BlockAction::kBlockpage) {
      // An anonymous configuration of the same product: identical parsing
      // stack, but no identifiable page.
      cfg.blockpage_html = "<html></html>";
    }
  }
  net.attach_device(r2, std::make_shared<censor::Device>(cfg));

  ml::EndpointMeasurement m;
  m.endpoint_id = net::Ipv4Address(10, salt, 9, 1).str();
  m.country = "LAB";

  trace::CenTraceOptions topts;
  topts.repetitions = 3;
  trace::CenTrace tracer(net, client, topts);
  m.trace = tracer.measure(net::Ipv4Address(10, salt, 9, 1), "www.blocked.example",
                           "www.example.org");
  fuzz::CenFuzz fuzzer(net, client);
  m.fuzz = fuzzer.run(net::Ipv4Address(10, salt, 9, 1), "www.blocked.example",
                      "www.example.org");
  if (m.trace.blocking_hop_ip) {
    m.banner =
        probe::run(net, probe::ProbeRunOptions{.ip = *m.trace.blocking_hop_ip});
  }
  return m;
}

}  // namespace

TEST(VendorClassifier, RecoversLabelsWithoutBannersOrBlockpages) {
  const std::vector<std::string> vendors = {"Cisco", "Kerio", "MikroTik", "Fortinet",
                                            "PaloAlto"};
  std::vector<ml::EndpointMeasurement> train_set;
  std::vector<ml::EndpointMeasurement> test_set;
  std::uint8_t salt = 1;
  for (const std::string& vendor : vendors) {
    for (int rep = 0; rep < 2; ++rep) {
      train_set.push_back(measure_lab(vendor, /*strip=*/false, salt++));
    }
    test_set.push_back(measure_lab(vendor, /*strip=*/true, salt++));
  }

  // Training rows must be labelled (banner or blockpage visible), test
  // rows must NOT be (that is the §7.1 scenario).
  ml::FeatureMatrix train = ml::extract_features(train_set);
  ml::FeatureMatrix test = ml::extract_features(test_set);
  for (const std::string& label : train.labels) EXPECT_FALSE(label.empty());
  for (const std::string& label : test.labels) EXPECT_TRUE(label.empty());

  // Fit on the labelled rows; impute both matrices with the training
  // medians by stacking (test rows carry NaNs for banner features).
  ml::FeatureMatrix combined = train;
  for (std::size_t i = 0; i < test.n_rows(); ++i) {
    combined.rows.push_back(test.rows[i]);
    combined.labels.push_back("");
    combined.row_ids.push_back(test.row_ids[i]);
    combined.countries.push_back(test.countries[i]);
  }
  ml::impute_median(combined);

  std::vector<std::size_t> train_idx;
  std::vector<std::string> train_labels;
  for (std::size_t i = 0; i < train.n_rows(); ++i) {
    train_idx.push_back(i);
    train_labels.push_back(combined.labels[i]);
  }
  std::vector<int> y;
  std::vector<std::string> classes = ml::encode_labels(train_labels, y);
  // encode_labels only saw training labels; extend y with placeholders.
  y.resize(combined.n_rows(), 0);

  ml::ForestOptions fopts;
  fopts.n_trees = 60;
  ml::RandomForest forest(fopts);
  forest.fit(combined.rows, y, train_idx, static_cast<int>(classes.size()));

  // Classify the stripped deployments.
  int correct = 0;
  for (std::size_t t = 0; t < test_set.size(); ++t) {
    std::size_t row = train.n_rows() + t;
    int predicted = forest.predict(combined.rows[row]);
    if (classes[static_cast<std::size_t>(predicted)] == vendors[t]) ++correct;
  }
  // Behavioural features alone must identify at least 4 of the 5 vendors.
  EXPECT_GE(correct, 4) << "only " << correct << "/5 stripped deployments classified";
}

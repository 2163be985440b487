#include "scenario/variance.hpp"

#include "scenario/builder.hpp"

namespace cen::scenario {

VarianceScenario make_variance_world(std::uint64_t seed) {
  VarianceScenario s;
  Builder b(seed);
  auto meas = b.make_as(64500, "MEASUREMENT-US", "US");
  sim::NodeId client = b.host(meas, "client");
  sim::NodeId us_r1 = b.backbone_router(meas, "us-r1");
  b.link(client, us_r1);

  static const char* kCountries[] = {"DE", "FR", "NL", "GB", "SE", "PL", "IT",
                                     "ES", "JP", "KR", "SG", "AU", "BR", "AR",
                                     "ZA", "IN", "CA", "MX", "TR", "US"};
  for (int i = 0; i < 20; ++i) {
    std::uint32_t asn = 55000 + static_cast<std::uint32_t>(i);
    Builder::AsHandle h = b.make_as(asn, "EDGE-" + std::to_string(i), kCountries[i]);

    // Transit fabric: `stages` sequential ECMP stages of width `width`
    // give width^stages equal-cost paths. Endpoint 19 is the paper's
    // pathological case (>100 unique paths); the rest span 1..8.
    int stages, width;
    if (i == 19) {
      stages = 3, width = 5;  // 125 paths
    } else {
      width = 1 + i % 3;          // 1, 2 or 3
      stages = 1 + (i / 3) % 2;   // 1 or 2
    }
    // Each stage is `width` parallel routers between two joiners, so the
    // number of equal-cost paths is width^stages.
    sim::NodeId prev = us_r1;
    for (int st = 0; st < stages; ++st) {
      sim::NodeId join = b.backbone_router(h, "j" + std::to_string(st));
      for (int w = 0; w < width; ++w) {
        sim::NodeId r = b.backbone_router(
            h, "t" + std::to_string(st) + "-" + std::to_string(w));
        b.link(prev, r);
        b.link(r, join);
      }
      prev = join;
    }
    sim::NodeId ep = b.host(h, "ep");
    b.link(prev, ep);

    s.endpoints.push_back(b.topology().ip(ep));
  }

  s.network = b.finish(seed ^ 0xF3);
  s.client = client;

  for (std::size_t i = 0; i < s.endpoints.size(); ++i) {
    sim::NodeId ep = *s.network->topology().find_by_ip(s.endpoints[i]);
    s.true_path_counts.push_back(
        s.network->topology().equal_cost_paths(client, ep).size());
  }
  // Endpoints also answer web requests (infrastructural machines).
  for (std::size_t i = 0; i < s.endpoints.size(); ++i) {
    sim::NodeId ep = *s.network->topology().find_by_ip(s.endpoints[i]);
    sim::EndpointProfile profile;
    profile.hosted_domains = {"host" + std::to_string(i) + ".example.net"};
    s.network->add_endpoint(ep, profile);
  }
  return s;
}

}  // namespace cen::scenario

// Example: probing a censorship device's parsing rules with CenFuzz.
//
// Deploys two different vendor devices in front of the same content and
// shows how their evasion fingerprints differ — the observable behaviour
// the clustering pipeline turns into vendor signatures.
#include <cstdio>
#include <map>

#include "cenfuzz/cenfuzz.hpp"
#include "censor/vendors.hpp"

using namespace cen;

namespace {

fuzz::CenFuzzReport fuzz_vendor(const std::string& vendor) {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
  sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
  sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, r2);
  topo.add_link(r2, server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 8, {64512, "LAB", "XX"});
  sim::Network net(sim::Topology(topo.build()), std::move(db));
  sim::EndpointProfile profile;
  profile.hosted_domains = {"blocked.example", "www.example.org"};
  profile.serves_subdomains = true;
  net.add_endpoint(server, profile);

  censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "lab-" + vendor);
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  net.attach_device(r2, std::make_shared<censor::Device>(cfg));

  fuzz::CenFuzz fuzzer(net, client);
  return fuzzer.run(net::Ipv4Address(10, 0, 9, 1), "www.blocked.example",
                    "www.example.org");
}

}  // namespace

int main() {
  std::map<std::string, std::map<std::string, std::pair<int, int>>> per_vendor;
  const char* vendors[] = {"Cisco", "Kerio"};
  for (const char* vendor : vendors) {
    fuzz::CenFuzzReport report = fuzz_vendor(vendor);
    for (const fuzz::FuzzMeasurement& m : report.measurements) {
      if (m.outcome == fuzz::FuzzOutcome::kUntestable) continue;
      auto& [succ, total] = per_vendor[vendor][m.strategy];
      ++total;
      if (m.outcome == fuzz::FuzzOutcome::kSuccessful) ++succ;
    }
  }

  std::printf("%-26s %10s %10s   %s\n", "Strategy", "Cisco", "Kerio", "differs?");
  std::printf("--------------------------------------------------------------\n");
  for (const auto& [strategy, cisco] : per_vendor["Cisco"]) {
    auto kerio = per_vendor["Kerio"][strategy];
    double c_rate = cisco.second ? 100.0 * cisco.first / cisco.second : 0;
    double k_rate = kerio.second ? 100.0 * kerio.first / kerio.second : 0;
    std::printf("%-26s %9.1f%% %9.1f%%   %s\n", strategy.c_str(), c_rate, k_rate,
                (c_rate > k_rate + 10 || k_rate > c_rate + 10) ? "<-- fingerprint"
                                                               : "");
  }
  std::printf("\nStrategies whose outcomes differ across vendors are exactly the\n");
  std::printf("features that let the clustering pipeline (and Figure 9's random\n");
  std::printf("forest) tell vendors apart without any banner or blockpage.\n");
  return 0;
}

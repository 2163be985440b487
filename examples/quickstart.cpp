// Quickstart: build a tiny network with one censorship device, locate it
// with CenTrace, identify it with CenProbe, and probe its rules with
// CenFuzz — the full public API in ~100 lines.
#include <cstdio>

#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "centrace/centrace.hpp"
#include "censor/vendors.hpp"
#include "netsim/engine.hpp"
#include "obs/observer.hpp"

using namespace cen;

int main() {
  // 1. A five-hop path: client -> r1 -> r2 -> r3 -> server, with a Fortinet
  //    device on the link into r3 blocking blocked.example.
  sim::CompactTopologyBuilder topo;
  geo::IpMetadataDb geodb;
  geo::AsInfo isp{64512, "EXAMPLE-ISP", "XX"};
  geodb.add_route(net::Ipv4Address(10, 0, 0, 0), 8, isp);

  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
  sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
  sim::NodeId r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1));
  sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, r2);
  topo.add_link(r2, r3);
  topo.add_link(r3, server);

  sim::Network network(sim::Topology(topo.build()), std::move(geodb));

  // Optional: attach an observer — every tool run below then feeds the
  // metrics registry, span tracer and measurement journal (src/obs/).
  obs::Observer observer;
  network.set_observer(&observer);

  sim::EndpointProfile web;
  web.hosted_domains = {"www.example.org"};
  network.add_endpoint(server, web);

  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "demo-device");
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  cfg.mgmt_ip = net::Ipv4Address(10, 0, 3, 1);
  auto device = std::make_shared<censor::Device>(cfg);
  network.attach_device(r3, device);

  // 2. CenTrace: where is the blocking happening?
  trace::CenTrace tracer(network, client);
  trace::CenTraceReport report = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                                "www.blocked.example", "www.example.org");
  std::printf("blocked:   %s\n", report.blocked ? "yes" : "no");
  std::printf("type:      %s\n", std::string(blocking_type_name(report.blocking_type)).c_str());
  std::printf("hop:       %d (endpoint at %d)\n", report.blocking_hop_ttl,
              report.endpoint_hop_distance);
  if (report.blocking_hop_ip) {
    std::printf("device IP: %s (%s)\n", report.blocking_hop_ip->str().c_str(),
                report.blocking_as ? report.blocking_as->name.c_str() : "?");
  }

  // 3. CenProbe: who makes it?
  if (report.blocking_hop_ip) {
    probe::DeviceProbeReport probe =
        probe::run(network, probe::ProbeRunOptions{.ip = *report.blocking_hop_ip});
    std::printf("open ports: %zu, vendor: %s\n", probe.open_ports.size(),
                probe.vendor ? probe.vendor->c_str() : "(unknown)");
  }

  // 4. CenFuzz: which request mutations evade it?
  fuzz::CenFuzz fuzzer(network, client);
  fuzz::CenFuzzReport fz = fuzzer.run(net::Ipv4Address(10, 0, 9, 1),
                                      "www.blocked.example", "www.example.org");
  std::size_t evasions = 0;
  for (const fuzz::FuzzMeasurement& m : fz.measurements) {
    if (m.outcome == fuzz::FuzzOutcome::kSuccessful) ++evasions;
  }
  std::printf("fuzz: %zu requests, %zu evading permutations\n", fz.total_requests,
              evasions);

  // 5. What did all of that cost? One-screen digest of the run's metrics
  //    (probe counts, retries, fault fires, confidence, spans, journal).
  std::printf("%s", observer.summary().c_str());
  return 0;
}

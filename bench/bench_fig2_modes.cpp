// Reproduces Figure 2: CenTrace operation under each censorship-device
// behaviour (A: control sweep, B: in-path injector, C: packet-dropper,
// D: on-path tap, E: TTL-copying injector) — printing the hop-by-hop
// observations a real run produces.
#include "bench_common.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"

using namespace bench;

namespace {

struct DemoNet {
  DemoNet() {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    for (int i = 0; i < 4; ++i) {
      routers[i] = topo.add_node("R" + std::to_string(i + 1),
                                 net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
    }
    server = topo.add_node("endpoint", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, routers[0]);
    for (int i = 0; i + 1 < 4; ++i) topo.add_link(routers[i], routers[i + 1]);
    topo.add_link(routers[3], server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "DEMO-AS", "XX"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, profile);
  }
  sim::NodeId client, server;
  sim::NodeId routers[4];
  std::unique_ptr<sim::Network> net;
};

void show(const char* mode, censor::DeviceConfig cfg) {
  DemoNet dn;
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  dn.net->attach_device(dn.routers[2], std::make_shared<censor::Device>(cfg));  // hop 3

  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  trace::CenTrace tracer(*dn.net, dn.client, opts);
  trace::CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                           "www.blocked.example", "www.example.org");
  std::printf("\n(%s)\n", mode);
  const trace::SingleTrace& t = r.test_traces[0];
  for (const trace::HopObservation& h : t.hops) {
    std::printf("  TTL %2d -> %-7s", h.ttl,
                std::string(probe_response_name(h.response)).c_str());
    if (h.icmp_router) std::printf(" from %s", h.icmp_router->str().c_str());
    if (h.tcp_and_icmp) std::printf("  [injected response AND ICMP]");
    std::printf("\n");
  }
  std::printf("  => blocked=%s type=%s placement=%s hop=%d (endpoint at %d) loc=%s%s\n",
              r.blocked ? "yes" : "no",
              std::string(blocking_type_name(r.blocking_type)).c_str(),
              std::string(device_placement_name(r.placement)).c_str(),
              r.blocking_hop_ttl, r.endpoint_hop_distance,
              std::string(blocking_location_name(r.location)).c_str(),
              r.ttl_copy_detected ? " [TTL-copy corrected]" : "");
}

}  // namespace

int main() {
  header("Figure 2: CenTrace operation under different device behaviours");
  {
    // (A) Control sweep: no device in the way.
    DemoNet dn;
    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    trace::CenTrace tracer(*dn.net, dn.client, opts);
    trace::SingleTrace t = tracer.sweep(net::Ipv4Address(10, 0, 9, 1), "www.example.org");
    std::printf("\n(A) Control Domain sweep\n");
    for (const trace::HopObservation& h : t.hops) {
      std::printf("  TTL %2d -> %-7s%s\n", h.ttl,
                  std::string(probe_response_name(h.response)).c_str(),
                  h.icmp_router ? (" from " + h.icmp_router->str()).c_str() : "");
    }
    std::printf("  => endpoint reached at hop %d\n", t.terminating_ttl);
  }
  {
    censor::DeviceConfig cfg;
    cfg.id = "inpath-rst";
    cfg.action = censor::BlockAction::kRstInject;
    show("B: in-path injector — terminating RST, no ICMP at the device hop", cfg);
  }
  {
    censor::DeviceConfig cfg;
    cfg.id = "dropper";
    cfg.action = censor::BlockAction::kDrop;
    show("C: packet drops — trailing timeout run marks the device hop", cfg);
  }
  {
    censor::DeviceConfig cfg;
    cfg.id = "tap";
    cfg.on_path = true;
    cfg.action = censor::BlockAction::kRstInject;
    show("D: on-path tap — injected RST alongside ICMP from the same hop", cfg);
  }
  {
    censor::DeviceConfig cfg;
    cfg.id = "ttl-copy";
    cfg.action = censor::BlockAction::kRstInject;
    cfg.injection.copy_ttl_from_trigger = true;
    show("E: TTL-copying injector — reset visible only at ~2x device distance", cfg);
  }
  return 0;
}

// Fault-matrix bench: CenTrace localisation accuracy, blocked-verdict
// recall and mean confidence over a grid of fault profiles — the chaos
// harness's quantitative companion (ISSUE tentpole). Each cell runs the
// same ground-truth topology (RST injector at hop 3 of a 6-hop line)
// across several seeds under loss x {none, ICMP rate limiting, route
// churn, both}.
#include <memory>

#include "bench_common.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"

namespace {

using namespace cen;
using namespace cen::trace;

constexpr int kTrials = 20;
constexpr int kDeviceHop = 3;

struct Cell {
  int localized = 0;
  int blocked = 0;
  double confidence_sum = 0.0;
  int loss_recovered = 0;
};

/// Line topology; with `ecmp`, hop 2 gets an equal-cost twin so route
/// flapping has an alternative path (both reconverge before the device).
std::unique_ptr<sim::Network> make_net(std::uint64_t seed, bool ecmp) {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId prev = client;
  sim::NodeId device_router = sim::kInvalidNode;
  sim::NodeId routers[5];
  for (int i = 0; i < 5; ++i) {
    sim::NodeId r = topo.add_node("r" + std::to_string(i + 1),
                                  net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
    topo.add_link(prev, r);
    if (i + 1 == kDeviceHop) device_router = r;
    routers[i] = r;
    prev = r;
  }
  if (ecmp) {
    sim::NodeId r2b = topo.add_node("r2b", net::Ipv4Address(10, 0, 2, 2));
    topo.add_link(routers[0], r2b);
    topo.add_link(r2b, routers[2]);
  }
  sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(prev, server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "TRANSIT-AS", "XX"});
  auto net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db), seed);
  sim::EndpointProfile profile;
  profile.hosted_domains = {"www.example.org"};
  net->add_endpoint(server, profile);

  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  cfg.http_rules.add("blocked.example");
  net->attach_device(device_router, std::make_shared<censor::Device>(cfg));
  return net;
}

Cell run_cell(const sim::FaultPlan& plan, bool ecmp) {
  Cell cell;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::unique_ptr<sim::Network> net =
        make_net(static_cast<std::uint64_t>(trial + 1), ecmp);
    net->set_fault_plan(plan);
    CenTrace tracer(*net, 0, CenTraceOptions{});
    CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                      "www.blocked.example", "www.example.org");
    if (r.blocked) ++cell.blocked;
    if (r.blocked && r.blocking_hop_ttl == kDeviceHop && r.blocking_hop_ip &&
        *r.blocking_hop_ip == net::Ipv4Address(10, 0, kDeviceHop, 1)) {
      ++cell.localized;
    }
    cell.confidence_sum += r.confidence.overall;
    cell.loss_recovered += r.confidence.loss_recovered_probes;
  }
  return cell;
}

sim::FaultPlan make_plan(double loss, bool rate_limit, bool churn) {
  sim::FaultPlan plan;
  plan.default_link.loss = loss;
  if (rate_limit) {
    plan.default_node.icmp_rate_per_sec = 0.0005;
    plan.default_node.icmp_burst = 2.0;
  }
  if (churn) plan.route_flap_period = 10 * kMinute;
  return plan;
}

}  // namespace

int main() {
  bench::header("Fault matrix: CenTrace resilience vs injected faults");
  std::printf("%d trials/cell, RST injector at hop %d, 11-rep CenTrace\n\n", kTrials,
              kDeviceHop);
  std::printf("%-8s %-12s %10s %10s %12s %10s\n", "loss", "extra", "localized",
              "blocked", "confidence", "retries");
  bench::rule();

  const double losses[] = {0.0, 0.02, 0.05, 0.1, 0.2};
  const struct {
    const char* name;
    bool rate_limit;
    bool churn;
  } extras[] = {
      {"none", false, false},
      {"rate-limit", true, false},
      {"churn", false, true},
      {"both", true, true},
  };

  for (double loss : losses) {
    for (const auto& extra : extras) {
      // Churn cells run on the ECMP-diamond variant so flapping has an
      // alternative path to swap onto.
      Cell cell = run_cell(make_plan(loss, extra.rate_limit, extra.churn), extra.churn);
      std::printf("%-8.2f %-12s %10s %10s %12.3f %10d\n", loss, extra.name,
                  bench::pct(cell.localized, kTrials).c_str(),
                  bench::pct(cell.blocked, kTrials).c_str(),
                  cell.confidence_sum / kTrials, cell.loss_recovered);
    }
  }
  bench::rule();
  std::printf("localized = blocked verdict at the true hop with the true IP.\n");
  std::printf("confidence = mean CenTraceReport confidence.overall per cell.\n");
  return 0;
}

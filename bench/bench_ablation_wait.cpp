// Ablation (§4.1): the 120 s inter-probe wait exists because stateful
// censors keep residual blocking state per (client, endpoint) pair. This
// bench runs the same measurement with decreasing waits and shows the
// control sweep getting contaminated — inflating apparent blocking and
// destroying localisation.
#include "bench_common.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"

using namespace bench;

int main() {
  header("Ablation: inter-probe wait vs stateful-censor contamination");

  std::printf("%10s | %8s %12s %16s\n", "wait (s)", "blocked", "control ok",
              "blocking hop ok");
  rule();
  for (int wait_s : {0, 5, 30, 60, 120}) {
    // Fresh network per setting: residual state must not leak across runs.
    sim::CompactTopologyBuilder topo;
    sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
    sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
    sim::NodeId r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1));
    sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, r1);
    topo.add_link(r1, r2);
    topo.add_link(r2, r3);
    topo.add_link(r3, server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "X", "XX"});
    sim::Network net(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net.add_endpoint(server, profile);

    censor::DeviceConfig cfg;
    cfg.id = "stateful";
    cfg.action = censor::BlockAction::kDrop;
    cfg.residual_block_ms = 90 * kSecond;  // aggressive residual window
    cfg.http_rules.add("blocked.example");
    net.attach_device(r2, std::make_shared<censor::Device>(cfg));

    trace::CenTraceOptions opts;
    opts.repetitions = 5;
    opts.inter_probe_wait = static_cast<SimTime>(wait_s) * kSecond;
    trace::CenTrace tracer(net, client, opts);

    // Measure test domain FIRST (plants residual state), then judge by
    // whether the subsequent control sweeps still reach the endpoint.
    int control_ok = 0, hop_correct = 0, blocked = 0;
    constexpr int kRuns = 5;
    for (int run = 0; run < kRuns; ++run) {
      trace::SingleTrace test = tracer.sweep(net::Ipv4Address(10, 0, 9, 1),
                                             "www.blocked.example");
      (void)test;
      trace::SingleTrace control =
          tracer.sweep(net::Ipv4Address(10, 0, 9, 1), "www.example.org");
      if (control.endpoint_reached) ++control_ok;
      trace::CenTraceReport full = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                                  "www.blocked.example", "www.example.org");
      if (full.blocked) ++blocked;
      if (full.blocking_hop_ip &&
          *full.blocking_hop_ip == net::Ipv4Address(10, 0, 2, 1)) {
        ++hop_correct;
      }
    }
    std::printf("%10d | %7d/%d %11d/%d %15d/%d\n", wait_s, blocked, kRuns, control_ok,
                kRuns, hop_correct, kRuns);
  }
  rule();
  std::printf("Expectation: with short waits the residual window swallows even\n");
  std::printf("Control-Domain probes — the control sweep never reaches the\n");
  std::printf("endpoint, so CenTrace (conservatively) cannot even certify the\n");
  std::printf("blocking, let alone localise the device. With waits beyond the\n");
  std::printf("censor's residual window (the paper uses 120 s) everything works.\n");
  return 0;
}

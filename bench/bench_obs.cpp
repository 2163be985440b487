// Observability overhead guard: the instrumentation must be near-free
// when no sink is attached.
//
// Three interleaved measurements of the pipeline hot loop (CenTrace
// measurements on the bench_perf chain topology):
//
//   baseline  a network that never had an observer attached — the
//             pure branch-not-taken fast path;
//   disabled  a network that had an observer attached and then detached
//             with set_observer(nullptr) — must fully restore the fast
//             path (cached counter pointers cleared, fault hooks unhooked);
//   enabled   observer attached — metrics + spans + journal all live.
//
// The enforced regression budget: median(disabled) must stay within 2%
// of median(baseline). A failure means detaching no longer restores the
// zero-instrumentation path. The enabled cost is reported (not enforced)
// so BENCH_obs.json tracks it over time.
//
//   ./bench_obs [output.json]      (default BENCH_obs.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/json.hpp"
#include "net/http.hpp"
#include "obs/observer.hpp"

namespace {

using namespace cen;

constexpr int kRounds = 9;         // interleaved rounds per mode (median taken)
constexpr int kMeasurements = 6;   // CenTrace measurements per round
constexpr double kBudget = 0.02;   // disabled-sink overhead budget (2%)

std::unique_ptr<sim::Network> make_net() {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId prev = client;
  for (int i = 0; i < 10; ++i) {
    sim::NodeId r =
        topo.add_node("r", net::Ipv4Address(10, 0, 1, static_cast<uint8_t>(i + 1)));
    topo.add_link(prev, r);
    prev = r;
  }
  sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(prev, server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "PERF", "XX"});
  auto net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
  sim::EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  net->add_endpoint(server, p);
  censor::DeviceConfig cfg = censor::make_vendor_device("Cisco", "perf-device");
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  net->attach_device(5, std::make_shared<censor::Device>(cfg));
  return net;
}

double hot_loop_ms(sim::Network& net, obs::Observer* observer) {
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  trace::CenTrace tracer(net, /*client=*/0, opts);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kMeasurements; ++i) {
    trace::CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                             "www.blocked.example", "www.example.org");
    if (!r.blocked) std::fprintf(stderr, "unexpected: hot loop saw no blocking\n");
  }
  auto t1 = std::chrono::steady_clock::now();
  if (observer != nullptr) {
    // Bound the span/journal growth between rounds (registry persists).
    observer->tracer().clear();
    observer->journal().clear();
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_obs.json";

  // Three networks, one per mode, so device/flow state histories match.
  std::unique_ptr<sim::Network> baseline_net = make_net();
  std::unique_ptr<sim::Network> disabled_net = make_net();
  std::unique_ptr<sim::Network> enabled_net = make_net();

  obs::Observer detached;  // attached once, then detached: must be free
  disabled_net->set_observer(&detached);
  disabled_net->set_observer(nullptr);
  obs::Observer attached;
  enabled_net->set_observer(&attached);

  // Warmup (allocators, caches) then interleaved rounds so slow drift
  // (thermal, frequency scaling) hits all three modes equally.
  (void)hot_loop_ms(*baseline_net, nullptr);
  (void)hot_loop_ms(*disabled_net, nullptr);
  (void)hot_loop_ms(*enabled_net, &attached);

  std::vector<double> baseline_ms, disabled_ms, enabled_ms;
  for (int round = 0; round < kRounds; ++round) {
    baseline_ms.push_back(hot_loop_ms(*baseline_net, nullptr));
    disabled_ms.push_back(hot_loop_ms(*disabled_net, nullptr));
    enabled_ms.push_back(hot_loop_ms(*enabled_net, &attached));
  }

  const double base = median(baseline_ms);
  const double disabled = median(disabled_ms);
  const double enabled = median(enabled_ms);
  const double disabled_overhead = disabled / base - 1.0;
  const double enabled_overhead = enabled / base - 1.0;
  const bool pass = disabled_overhead < kBudget;

  std::printf("observability overhead (median of %d rounds, %d measurements each)\n",
              kRounds, kMeasurements);
  std::printf("  baseline (never attached): %8.2f ms\n", base);
  std::printf("  disabled (detached sink):  %8.2f ms  (%+.2f%%)\n", disabled,
              100.0 * disabled_overhead);
  std::printf("  enabled  (sink attached):  %8.2f ms  (%+.2f%%)\n", enabled,
              100.0 * enabled_overhead);
  std::printf("disabled-sink budget <%.0f%%: %s\n", 100.0 * kBudget,
              pass ? "PASS" : "FAIL");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("obs_overhead");
  w.key("rounds").value(kRounds);
  w.key("measurements_per_round").value(kMeasurements);
  w.key("baseline_ms").value(base);
  w.key("disabled_ms").value(disabled);
  w.key("enabled_ms").value(enabled);
  w.key("disabled_overhead").value(disabled_overhead);
  w.key("enabled_overhead").value(enabled_overhead);
  w.key("budget").value(kBudget);
  w.key("pass").value(pass);
  w.end_object();
  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path);
  return pass ? 0 : 1;
}

// CenTrace behaviour across every device mode of the paper's Fig. 2.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/fingerprint.hpp"
#include "net/http.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"

using namespace cen;
using namespace cen::trace;

namespace {

/// client(0) - r1..r5 - server(6); server hosts www.example.org.
/// `profiles` are r1..r5's profiles (missing ones default); `extend` runs
/// on the builder after the line is laid out (a second endpoint for the
/// local-filter test).
struct TraceNet {
  using Extend = std::function<void(TraceNet&, sim::CompactTopologyBuilder&)>;

  explicit TraceNet(std::vector<sim::RouterProfile> profiles = {}, const Extend& extend = {}) {
    profiles.resize(5);
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    for (int i = 0; i < 5; ++i) {
      routers[i] = topo.add_node("r" + std::to_string(i + 1),
                                 net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1),
                                 profiles[static_cast<std::size_t>(i)]);
    }
    server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, routers[0]);
    for (int i = 0; i + 1 < 5; ++i) topo.add_link(routers[i], routers[i + 1]);
    topo.add_link(routers[4], server);
    if (extend) extend(*this, topo);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "TRANSIT-AS", "XX"});
    db.add_route(net::Ipv4Address(10, 0, 9, 0), 24, {64513, "ENDPOINT-AS", "YY"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, profile);
  }

  void attach(censor::DeviceConfig cfg, int router_index) {
    cfg.http_rules.add("blocked.example");
    cfg.sni_rules.add("blocked.example");
    net->attach_device(routers[router_index], std::make_shared<censor::Device>(cfg));
  }

  CenTraceReport measure(bool https = false, int reps = 3) {
    CenTraceOptions opts;
    opts.repetitions = reps;
    opts.protocol = https ? ProbeProtocol::kHttps : ProbeProtocol::kHttp;
    CenTrace tracer(*net, client, opts);
    return tracer.measure(net::Ipv4Address(10, 0, 9, 1), "www.blocked.example",
                          "www.example.org");
  }

  sim::NodeId client, server;
  sim::NodeId routers[5];
  std::unique_ptr<sim::Network> net;
};

/// A router that never answers TTL exhaustion.
sim::RouterProfile silent() {
  sim::RouterProfile p;
  p.responds_icmp = false;
  return p;
}

/// A router that quotes the whole expired datagram (RFC 1812).
sim::RouterProfile full_quote() {
  sim::RouterProfile p;
  p.quote_policy = net::QuotePolicy::kRfc1812Full;
  return p;
}

}  // namespace

TEST(CenTrace, ControlOnlyNotBlocked) {
  TraceNet tn;  // no device at all
  CenTraceReport r = tn.measure();
  EXPECT_FALSE(r.blocked);
  EXPECT_EQ(r.location, BlockingLocation::kNotBlocked);
  EXPECT_EQ(r.endpoint_hop_distance, 6);
  // Control path fully reconstructed.
  ASSERT_GE(r.control_path.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.control_path[static_cast<std::size_t>(i)]);
    EXPECT_EQ(*r.control_path[static_cast<std::size_t>(i)],
              net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
  }
}

TEST(CenTrace, InPathRstInjector) {  // Fig. 2 (B)
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 2);  // at r3, hop 3

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kRst);
  EXPECT_EQ(r.placement, DevicePlacement::kInPath);
  EXPECT_EQ(r.blocking_hop_ttl, 3);
  ASSERT_TRUE(r.blocking_hop_ip);
  EXPECT_EQ(*r.blocking_hop_ip, net::Ipv4Address(10, 0, 3, 1));
  ASSERT_TRUE(r.blocking_as);
  EXPECT_EQ(r.blocking_as->asn, 64512u);
  EXPECT_EQ(r.location, BlockingLocation::kOnPathToEndpoint);
  ASSERT_TRUE(r.injected_packet);
  EXPECT_TRUE(r.injected_packet->tcp.has(net::TcpFlags::kRst));
}

TEST(CenTrace, PacketDropper) {  // Fig. 2 (C)
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "dropper";
  cfg.action = censor::BlockAction::kDrop;
  tn.attach(cfg, 3);  // at r4, hop 4

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kTimeout);
  EXPECT_EQ(r.placement, DevicePlacement::kInPath);
  EXPECT_EQ(r.blocking_hop_ttl, 4);
  ASSERT_TRUE(r.blocking_hop_ip);
  EXPECT_EQ(*r.blocking_hop_ip, net::Ipv4Address(10, 0, 4, 1));
  EXPECT_FALSE(r.injected_packet);
}

TEST(CenTrace, OnPathTap) {  // Fig. 2 (D)
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "tap";
  cfg.on_path = true;
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 2);

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kRst);
  EXPECT_EQ(r.placement, DevicePlacement::kOnPath);
  EXPECT_EQ(r.blocking_hop_ttl, 3);  // first hop with RST + ICMP together
}

TEST(CenTrace, TtlCopyingInjector) {  // Fig. 2 (E), the "Past E" artefact
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "copier";
  cfg.action = censor::BlockAction::kRstInject;
  cfg.injection.copy_ttl_from_trigger = true;
  tn.attach(cfg, 3);  // at r4, hop 4

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kRst);
  EXPECT_TRUE(r.ttl_copy_detected);
  // Reset first observable at probe TTL 2d-1 = 7, past the endpoint (6).
  EXPECT_EQ(r.location, BlockingLocation::kPastEndpoint);
  // ...but the corrected hop is the true device location.
  EXPECT_EQ(r.blocking_hop_ttl, 4);
  ASSERT_TRUE(r.blocking_hop_ip);
  EXPECT_EQ(*r.blocking_hop_ip, net::Ipv4Address(10, 0, 4, 1));
  ASSERT_TRUE(r.injected_packet);
  EXPECT_EQ(r.injected_packet->ip.ttl, 1);
}

TEST(CenTrace, BlockpageInjectorIdentified) {
  TraceNet tn;
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "f1");
  tn.attach(cfg, 2);

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kHttpBlockpage);
  ASSERT_TRUE(r.blockpage_vendor);
  EXPECT_EQ(*r.blockpage_vendor, "Fortinet");
}

TEST(CenTrace, AtEndpointLocalFilter) {  // the "At E" population
  sim::NodeId ep2 = sim::kInvalidNode;
  TraceNet tn({}, [&](TraceNet& t, sim::CompactTopologyBuilder& b) {
    ep2 = b.add_node("ep2", net::Ipv4Address(10, 0, 9, 2));
    b.add_link(t.routers[4], ep2);
  });
  sim::EndpointProfile filtered;
  filtered.hosted_domains = {"www.other.org"};
  filtered.local_filter = sim::LocalFilterAction::kRst;
  filtered.local_filter_rules.add("blocked.example");
  tn.net->add_endpoint(ep2, filtered);

  CenTraceOptions opts;
  opts.repetitions = 3;
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 2), "www.blocked.example",
                                    "www.example.org");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.location, BlockingLocation::kAtEndpoint);
  EXPECT_EQ(r.blocking_type, BlockingType::kRst);
  EXPECT_EQ(r.blocking_hop_ttl, r.endpoint_hop_distance);
}

TEST(CenTrace, NoIcmpCase) {
  // An RST injector at hop 4 whose router AND predecessor are ICMP-silent:
  // the reset pins the terminating TTL, but no control-path IP exists at or
  // before it — the paper's single "No ICMP" case.
  TraceNet tn({{}, {}, silent(), silent()});
  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 3);  // device at hop 4

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kRst);
  EXPECT_EQ(r.location, BlockingLocation::kNoIcmp);
  EXPECT_FALSE(r.blocking_hop_ip);
}

TEST(CenTrace, SilentDropStillBoundedByPredecessor) {
  // A drop censor behind one silent router: the timeout run starts at the
  // silent hop, but the responding predecessor still bounds the location —
  // NOT a "No ICMP" case under the paper's definition.
  TraceNet tn({{}, {}, silent()});  // hop 3 silent
  censor::DeviceConfig cfg;
  cfg.id = "dropper";
  cfg.action = censor::BlockAction::kDrop;
  tn.attach(cfg, 3);  // device at hop 4

  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.location, BlockingLocation::kOnPathToEndpoint);
  EXPECT_EQ(r.blocking_hop_ttl, 3);  // conservative: first silent hop
  EXPECT_FALSE(r.blocking_hop_ip);   // that hop has no known IP
}

TEST(CenTrace, HttpsProbesTriggerSniDevices) {
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "sni-dropper";
  cfg.action = censor::BlockAction::kDrop;
  tn.attach(cfg, 2);
  CenTraceReport r = tn.measure(/*https=*/true);
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.protocol, ProbeProtocol::kHttps);
  EXPECT_EQ(r.blocking_hop_ttl, 3);
}

TEST(CenTrace, QuoteDiffsCollectedFromControl) {
  sim::RouterProfile tos;
  tos.rewrite_tos = 0x20;
  TraceNet tn({tos});
  CenTraceReport r = tn.measure();
  // One diff per distinct responding router.
  EXPECT_EQ(r.quote_diffs.size(), 5u);
  bool any_tos_change = false;
  for (const QuoteDiff& d : r.quote_diffs) any_tos_change |= d.tos_changed;
  EXPECT_TRUE(any_tos_change);  // hops after r1 quote the rewritten TOS
}

TEST(CenTrace, PathVarianceMajorityVote) {
  // Diamond at hops 2/3: upper branch has a dropper, lower is clean. The
  // per-flow ECMP sends different probes down different branches;
  // majority voting must still converge on a verdict.
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("c", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
  sim::NodeId up = topo.add_node("up", net::Ipv4Address(10, 0, 2, 1));
  sim::NodeId down = topo.add_node("down", net::Ipv4Address(10, 0, 2, 2));
  sim::NodeId r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1));
  sim::NodeId server = topo.add_node("s", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, up);
  topo.add_link(r1, down);
  topo.add_link(up, r3);
  topo.add_link(down, r3);
  topo.add_link(r3, server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "X", "XX"});
  sim::Network net(sim::Topology(topo.build()), std::move(db));
  sim::EndpointProfile profile;
  profile.hosted_domains = {"www.example.org"};
  net.add_endpoint(server, profile);
  censor::DeviceConfig cfg;
  cfg.id = "upper-dropper";
  cfg.action = censor::BlockAction::kDrop;
  cfg.http_rules.add("blocked.example");
  net.attach_device(up, std::make_shared<censor::Device>(cfg));

  CenTraceOptions opts;
  opts.repetitions = 11;
  CenTrace tracer(net, client, opts);
  CenTraceReport r =
      tracer.measure(net::Ipv4Address(10, 0, 9, 1), "www.blocked.example", "www.example.org");
  // A majority verdict exists either way; the hop estimate must be a real
  // hop on the diamond (2, the device) or a clean pass (not blocked), and
  // the report must be internally consistent.
  if (r.blocked) {
    EXPECT_EQ(r.blocking_hop_ttl, 2);
    EXPECT_EQ(r.blocking_type, BlockingType::kTimeout);
  } else {
    EXPECT_EQ(r.location, BlockingLocation::kNotBlocked);
  }
}

TEST(CenTrace, SweepStopsOnEndpointData) {
  TraceNet tn;
  CenTraceOptions opts;
  CenTrace tracer(*tn.net, tn.client, opts);
  SingleTrace t = tracer.sweep(net::Ipv4Address(10, 0, 9, 1), "www.example.org");
  EXPECT_TRUE(t.endpoint_reached);
  EXPECT_EQ(t.terminating_ttl, 6);
  EXPECT_EQ(t.hops.size(), 6u);
}

TEST(CenTrace, StatefulResidualBlockingHandledByWait) {
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "stateful";
  cfg.action = censor::BlockAction::kDrop;
  cfg.residual_block_ms = 60 * kSecond;
  tn.attach(cfg, 2);
  // Test sweep first (plants residual state), control afterwards: the
  // 120 s inter-probe wait must prevent contamination of the control.
  CenTraceReport r = tn.measure();
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.endpoint_hop_distance, 6);  // control unaffected
  EXPECT_EQ(r.blocking_hop_ttl, 3);
}

TEST(CenTrace, ResponseNames) {
  EXPECT_EQ(probe_response_name(ProbeResponse::kTimeout), "TIMEOUT");
  EXPECT_EQ(probe_response_name(ProbeResponse::kTcpRst), "RST");
  EXPECT_EQ(blocking_type_name(BlockingType::kHttpBlockpage), "HTTP");
  EXPECT_EQ(blocking_location_name(BlockingLocation::kPastEndpoint), "Past E");
  EXPECT_EQ(device_placement_name(DevicePlacement::kOnPath), "on-path");
}

TEST(CenTrace, MaxTtlTruncationFallsBackToTrailingRun) {
  // A drop censor with timeout_run_stop larger than max_ttl: the sweep
  // runs out of TTLs and must recover the terminating hop from the
  // trailing timeout run.
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "dropper";
  cfg.action = censor::BlockAction::kDrop;
  tn.attach(cfg, 1);  // device at hop 2
  // max_ttl must still let the Control sweep reach the endpoint (hop 6);
  // the Test sweep then exhausts TTLs 2..8 as timeouts without ever
  // hitting the run-stop threshold.
  CenTraceOptions opts;
  opts.repetitions = 3;
  opts.max_ttl = 8;
  opts.timeout_run_stop = 50;
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", "www.example.org");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kTimeout);
  EXPECT_EQ(r.blocking_hop_ttl, 2);
}

TEST(CenTrace, CleanRunHasFullConfidence) {
  // A fault-free network must yield a fully confident report: perfect
  // agreement, no churn/rate-limit flags, zero retry recoveries.
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 2);
  CenTraceReport r = tn.measure();
  EXPECT_EQ(r.confidence.overall, 1.0);
  EXPECT_EQ(r.confidence.response_agreement, 1.0);
  EXPECT_EQ(r.confidence.ttl_agreement, 1.0);
  EXPECT_EQ(r.confidence.control_path_stability, 1.0);
  EXPECT_FALSE(r.confidence.icmp_rate_limited);
  EXPECT_FALSE(r.confidence.path_churn);
  EXPECT_EQ(r.confidence.loss_recovered_probes, 0);
  ASSERT_EQ(r.confidence.hop_confidence.size(), r.control_path.size());
  for (double hc : r.confidence.hop_confidence) EXPECT_EQ(hc, 1.0);
}

TEST(CenTrace, ConsistentlySilentRouterKeepsConfidence) {
  // A genuinely ICMP-silent router is *consistent* across sweeps — it must
  // not read as instability (only mixed answer/timeout at one hop should).
  TraceNet tn({{}, silent()});
  CenTraceReport r = tn.measure();
  EXPECT_EQ(r.confidence.control_path_stability, 1.0);
  EXPECT_FALSE(r.confidence.icmp_rate_limited);
  EXPECT_EQ(r.confidence.overall, 1.0);
}

// ---- CenTraceOptions edge cases (ISSUE satellite). ----

TEST(CenTraceOptions, ZeroRetriesStillMeasuresCleanNetworks) {
  // retries=0 means exactly one attempt per probe; on a fault-free
  // network nothing is lost, so the report is identical to the default.
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 2);
  CenTraceOptions opts;
  opts.repetitions = 3;
  opts.retries = 0;
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", "www.example.org");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_hop_ttl, 3);
  EXPECT_EQ(r.confidence.overall, 1.0);
}

TEST(CenTraceOptions, ShortTimeoutRunStopMisreadsSilentRun) {
  // timeout_run_stop shorter than a silent-router run: the sweep gives up
  // inside the silent stretch and the trace terminates as a timeout at its
  // start. With no device present the aggregate rejects the "blocked"
  // reading because the control sweeps are truncated the same way and
  // never reach the endpoint (endpoint_hop_distance stays -1).
  TraceNet tn({{}, silent(), silent()});  // hops 2 and 3
  CenTraceOptions opts;
  opts.repetitions = 3;
  opts.timeout_run_stop = 2;  // shorter than the 2-hop silent run + margin
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", "www.example.org");
  EXPECT_FALSE(r.blocked);
  EXPECT_EQ(r.endpoint_hop_distance, -1);
  EXPECT_EQ(r.location, BlockingLocation::kNotBlocked);
}

TEST(CenTraceOptions, SingleRepetitionProducesValidReport) {
  // repetitions=1: no voting, but the report must still be complete and
  // its (trivial) agreement scores saturate at 1.0.
  TraceNet tn;
  censor::DeviceConfig cfg;
  cfg.id = "rst";
  cfg.action = censor::BlockAction::kRstInject;
  tn.attach(cfg, 2);
  CenTraceOptions opts;
  opts.repetitions = 1;
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", "www.example.org");
  ASSERT_EQ(r.test_traces.size(), 1u);
  ASSERT_EQ(r.control_traces.size(), 1u);
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_hop_ttl, 3);
  EXPECT_EQ(r.endpoint_hop_distance, 6);
  EXPECT_EQ(r.confidence.response_agreement, 1.0);
  EXPECT_EQ(r.confidence.ttl_agreement, 1.0);
}

TEST(CenTraceOptions, BackoffAdvancesSimulatedClockOnlyOnRetry) {
  // With total loss the probe retries through its whole budget; each retry
  // doubles the wait. A zero backoff (the default) must not advance the
  // clock at all beyond the usual pacing.
  TraceNet tn;
  tn.net->set_fault_plan([] {
    sim::FaultPlan p;
    p.default_link.loss = 1.0;
    return p;
  }());
  CenTraceOptions opts;
  opts.repetitions = 1;
  opts.max_ttl = 1;
  opts.retries = 3;
  opts.retry_backoff = 1000;
  CenTrace tracer(*tn.net, tn.client, opts);
  SimTime before = tn.net->now();
  tracer.sweep(net::Ipv4Address(10, 0, 9, 1), "www.example.org");
  // 3 retries: 1 s + 2 s + 4 s backoff, plus the 120 s inter-probe wait.
  EXPECT_EQ(tn.net->now() - before, 7000 + opts.inter_probe_wait);
}

TEST(CenTrace, UnreachableEndpointNotBlocked) {
  // No endpoint at the target IP: every sweep times out everywhere and the
  // conservative verdict is "not blocked" (no control baseline).
  TraceNet tn;
  CenTraceOptions opts;
  opts.repetitions = 3;
  CenTrace tracer(*tn.net, tn.client, opts);
  CenTraceReport r = tracer.measure(net::Ipv4Address(10, 0, 9, 250),
                                    "www.blocked.example", "www.example.org");
  EXPECT_FALSE(r.blocked);
  EXPECT_EQ(r.endpoint_hop_distance, -1);
}

// ---- Sweep transcripts, pinned byte for byte. ----
//
// Every field a probe records, for every hop of every sweep, hashed over
// lab networks that cover HTTP, TLS, DNS/UDP, on-path taps, TTL copying,
// full RFC 1812 quotes and a lossy, ICMP-rate-limited fault plan, plus the
// metrics, trace and journal of one observed measurement. The probe path
// may change how it stores or moves packets; it may not change a byte.

namespace {

void mix_bytes(FingerprintBuilder& fp, BytesView b) {
  fp.mix(static_cast<std::uint64_t>(b.size()));
  for (std::uint8_t x : b) fp.mix(static_cast<std::uint64_t>(x));
}

void mix_sweep(FingerprintBuilder& fp, const SingleTrace& t) {
  fp.mix(t.domain);
  fp.mix(static_cast<std::uint64_t>(t.terminating_ttl));
  fp.mix(static_cast<std::uint64_t>(t.terminating_response));
  fp.mix(t.endpoint_reached);
  fp.mix(t.connect_failed);
  fp.mix(t.channel_dead);
  fp.mix(static_cast<std::uint64_t>(t.hops.size()));
  for (const HopObservation& h : t.hops) {
    fp.mix(static_cast<std::uint64_t>(h.ttl));
    fp.mix(static_cast<std::uint64_t>(h.response));
    fp.mix(h.icmp_router.has_value());
    if (h.icmp_router) fp.mix(static_cast<std::uint64_t>(h.icmp_router->value()));
    fp.mix(h.icmp_quoted.has_value());
    if (h.icmp_quoted) mix_bytes(fp, *h.icmp_quoted);
    fp.mix(h.tcp_packet.has_value());
    if (h.tcp_packet) {
      mix_bytes(fp, h.tcp_packet->serialize());
      fp.mix(h.tcp_packet->checksum_ok);
    }
    mix_bytes(fp, h.sent.ip.serialize());
    mix_bytes(fp, h.sent.tcp.serialize());
    fp.mix(h.tcp_and_icmp);
  }
}

std::uint64_t transcript_digest(const CenTraceReport& r) {
  FingerprintBuilder fp;
  for (const SingleTrace& t : r.control_traces) mix_sweep(fp, t);
  for (const SingleTrace& t : r.test_traces) mix_sweep(fp, t);
  fp.mix(report::to_json(r, /*include_sweeps=*/true));
  return fp.digest();
}

CenTraceReport trace_lab(TraceNet& tn, ProbeProtocol protocol, net::Ipv4Address endpoint,
                         int reps = 3, SimTime backoff = 0) {
  CenTraceOptions opts;
  opts.repetitions = reps;
  opts.protocol = protocol;
  opts.retry_backoff = backoff;
  CenTrace tracer(*tn.net, tn.client, opts);
  return tracer.measure(endpoint, "www.blocked.example", "www.example.org");
}

const net::Ipv4Address kServer(10, 0, 9, 1);

}  // namespace

TEST(CenTrace, SweepTranscriptsPinned) {
  struct Pin {
    const char* name;
    std::uint64_t expected;
    std::uint64_t actual;
  };
  std::vector<Pin> pins;

  {  // HTTP, on-path RST tap behind a TOS rewriter and a full-quoting router.
    sim::RouterProfile tos;
    tos.rewrite_tos = 0x20;
    sim::RouterProfile full = full_quote();
    full.clears_df_flag = true;
    TraceNet tn({tos, full});
    censor::DeviceConfig cfg;
    cfg.id = "tap";
    cfg.on_path = true;
    cfg.action = censor::BlockAction::kRstInject;
    tn.attach(cfg, 2);
    pins.push_back({"http tap", 0x2730bc0b6b27ea2bULL, transcript_digest(trace_lab(tn, ProbeProtocol::kHttp, kServer))});
  }
  {  // HTTP blockpage injector in path.
    TraceNet tn({{}, {}, {}, full_quote()});
    tn.attach(censor::make_vendor_device("Fortinet", "f1"), 2);
    pins.push_back(
        {"http blockpage", 0x7d05a65e4defe17eULL, transcript_digest(trace_lab(tn, ProbeProtocol::kHttp, kServer))});
  }
  {  // TLS, TTL-copying RST injector (the "Past E" artefact).
    TraceNet tn({full_quote()});
    censor::DeviceConfig cfg;
    cfg.id = "copier";
    cfg.action = censor::BlockAction::kRstInject;
    cfg.injection.copy_ttl_from_trigger = true;
    tn.attach(cfg, 3);
    pins.push_back(
        {"tls ttl-copy", 0x7680d0af189fe090ULL, transcript_digest(trace_lab(tn, ProbeProtocol::kHttps, kServer))});
  }
  {  // DNS over UDP to a resolver behind r5, sinkhole injector at hop 2.
    sim::NodeId resolver = sim::kInvalidNode;
    TraceNet tn({}, [&](TraceNet& t, sim::CompactTopologyBuilder& b) {
      resolver = b.add_node("resolver", net::Ipv4Address(10, 0, 9, 53));
      b.add_link(t.routers[4], resolver);
    });
    sim::EndpointProfile profile;
    profile.hosted_domains = {"resolver.example"};
    profile.is_dns_resolver = true;
    tn.net->add_endpoint(resolver, profile);
    censor::DeviceConfig cfg;
    cfg.id = "dns-injector";
    cfg.on_path = true;
    cfg.action = censor::BlockAction::kBlockpage;
    cfg.dns_rules.add("blocked.example");
    cfg.dns_sinkhole = censor::dns_sinkhole_address();
    tn.net->attach_device(tn.routers[1], std::make_shared<censor::Device>(cfg));
    pins.push_back({"dns/udp", 0x7a7853fa792079edULL,
                    transcript_digest(trace_lab(tn, ProbeProtocol::kDnsUdp,
                                                net::Ipv4Address(10, 0, 9, 53)))});
  }
  {  // Loss, duplication, reordering and ICMP rate limiting; observed.
    TraceNet tn;
    censor::DeviceConfig cfg;
    cfg.id = "dropper";
    cfg.action = censor::BlockAction::kDrop;
    tn.attach(cfg, 3);
    sim::FaultPlan plan;
    plan.default_link.loss = 0.05;
    plan.default_link.duplicate = 0.05;
    plan.default_link.reorder = 0.05;
    plan.default_node.icmp_rate_per_sec = 0.001;
    plan.default_node.icmp_burst = 1.0;
    tn.net->set_fault_plan(plan);
    obs::Observer observer;
    tn.net->set_observer(&observer);
    pins.push_back({"faulty", 0x0273db8a8bffff2cULL,
                    transcript_digest(trace_lab(tn, ProbeProtocol::kHttp, kServer, 5, kSecond))});
    tn.net->set_observer(nullptr);
    pins.push_back({"faulty metrics", 0xf6ac9d5a6b9222d0ULL,
                    FingerprintBuilder().mix(report::to_json(observer)).digest()});
    pins.push_back({"faulty trace", 0xe38feb71b85eb76cULL,
                    FingerprintBuilder().mix(observer.tracer().to_chrome_json()).digest()});
    pins.push_back({"faulty journal", 0x180313f776a0993bULL,
                    FingerprintBuilder().mix(observer.journal().to_json()).digest()});
  }

  for (const Pin& p : pins) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(p.actual));
    EXPECT_EQ(p.expected, p.actual) << p.name << " digest is now " << hex;
  }
}

// Fault-injection layer: sanitization, determinism, provable inertness of
// the disabled plan, and each fault class observed through the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "censor/vendors.hpp"
#include "cenprobe/bannergrab.hpp"
#include "cenprobe/fingerprints.hpp"
#include "cenprobe/portscan.hpp"
#include "net/http.hpp"
#include "netsim/engine.hpp"

using namespace cen;
using namespace cen::sim;

namespace {

/// client(0) - r1(1) - r2(2) - r3(3) - server(4); server hosts example.org.
struct FaultNet {
  explicit FaultNet(std::uint64_t seed = 1) {
    CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
    r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
    r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1));
    server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, r1);
    topo.add_link(r1, r2);
    topo.add_link(r2, r3);
    topo.add_link(r3, server);
    net = std::make_unique<Network>(sim::Topology(topo.build()), geo::IpMetadataDb{}, seed);
    EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, profile);
  }

  Bytes get() { return net::HttpRequest::get("www.example.org").serialize_bytes(); }

  NodeId client, r1, r2, r3, server;
  net::Ipv4Address server_ip{net::Ipv4Address(10, 0, 9, 1)};
  std::unique_ptr<Network> net;
};

/// Order-sensitive fingerprint of everything the client received, detailed
/// enough that any behavioural difference between two runs shows up.
std::string fingerprint(const std::vector<Event>& events) {
  std::ostringstream out;
  for (const Event& ev : events) {
    if (const auto* icmp = std::get_if<IcmpEvent>(&ev)) {
      out << "I[" << icmp->router.str() << ":" << icmp->quoted.size() << "]";
    } else if (const auto* tcp = std::get_if<TcpEvent>(&ev)) {
      out << "T[" << tcp->packet.tcp.src_port << ">" << tcp->packet.tcp.dst_port << ":"
          << static_cast<int>(tcp->packet.tcp.flags) << ":"
          << static_cast<int>(tcp->packet.ip.ttl) << ":" << tcp->packet.payload.size();
      for (std::uint8_t b : tcp->packet.payload) out << "," << static_cast<int>(b);
      out << "]";
    } else if (const auto* udp = std::get_if<UdpEvent>(&ev)) {
      out << "U[" << udp->datagram.payload.size() << "]";
    }
  }
  return out.str();
}

/// Run an identical probe sequence and return its combined fingerprint.
std::string run_sequence(FaultNet& fn) {
  std::string trace;
  Bytes payload = fn.get();
  for (int ttl = 1; ttl <= 5; ++ttl) {
    Connection conn = fn.net->open_connection(fn.client, fn.server_ip);
    trace += conn.connect() == ConnectResult::kEstablished ? "E" : "t";
    trace += fingerprint(conn.send(payload, static_cast<std::uint8_t>(ttl)));
    trace += "|";
    fn.net->clock().advance(1000);
  }
  return trace;
}

}  // namespace

// ---- Sanitization (satellite: probability validation). ----

TEST(FaultSanitize, NanThrowsEverywhereClampsOtherwise) {
  EXPECT_THROW(sanitize_probability(std::nan(""), "x"), std::invalid_argument);
  EXPECT_EQ(sanitize_probability(1.5, "x"), 1.0);
  EXPECT_EQ(sanitize_probability(-0.5, "x"), 0.0);
  EXPECT_EQ(sanitize_probability(0.25, "x"), 0.25);

  FaultNet fn;
  EXPECT_THROW(fn.net->set_transient_loss(std::nan("")), std::invalid_argument);
  fn.net->set_transient_loss(2.0);  // clamped, not rejected
  EXPECT_EQ(fn.net->faults().plan().transient_loss, 1.0);
  fn.net->set_transient_loss(-1.0);
  EXPECT_EQ(fn.net->faults().plan().transient_loss, 0.0);

  FaultPlan plan;
  plan.default_link.loss = std::nan("");
  EXPECT_THROW(fn.net->set_fault_plan(plan), std::invalid_argument);
  plan.default_link.loss = 3.0;
  fn.net->set_fault_plan(plan);
  EXPECT_EQ(fn.net->faults().plan().default_link.loss, 1.0);
}

TEST(FaultSanitize, RateLimiterKeepsMinimumBurst) {
  NodeFaultProfile np;
  np.icmp_rate_per_sec = 5.0;
  np.icmp_burst = 0.0;  // would silence the router outright
  EXPECT_EQ(np.sanitized("x").icmp_burst, 1.0);
  np.icmp_rate_per_sec = std::nan("");
  EXPECT_THROW(np.sanitized("x"), std::invalid_argument);
}

// ---- Inertness: the acceptance criterion's byte-identical guarantee. ----

TEST(FaultInertness, DefaultPlanIsByteIdenticalToNoPlan) {
  FaultNet bare(7);
  FaultNet planned(7);
  planned.net->set_fault_plan(FaultPlan{});  // explicit inert plan
  EXPECT_FALSE(planned.net->faults().active());
  EXPECT_EQ(run_sequence(bare), run_sequence(planned));
}

TEST(FaultInertness, InertPlanReportsInert) {
  FaultPlan plan;
  EXPECT_TRUE(plan.inert());
  plan.default_link.loss = 0.01;
  EXPECT_FALSE(plan.inert());
  plan.default_link.loss = 0.0;
  plan.route_flap_period = 60 * kSecond;
  EXPECT_FALSE(plan.inert());
}

TEST(FaultInertness, TransientLossShimMatchesLegacyBehaviour) {
  // The shim draws from the engine RNG at the original call sites, so two
  // same-seed networks configured via the shim stay in lockstep.
  FaultNet a(11), b(11);
  a.net->set_transient_loss(0.3);
  b.net->set_transient_loss(0.3);
  EXPECT_EQ(run_sequence(a), run_sequence(b));
}

TEST(FaultDeterminism, SamePlanSameSeedSameRun) {
  FaultPlan plan;
  plan.default_link.loss = 0.2;
  plan.default_link.duplicate = 0.1;
  FaultNet a(3), b(3);
  a.net->set_fault_plan(plan);
  b.net->set_fault_plan(plan);
  EXPECT_EQ(run_sequence(a), run_sequence(b));
}

// ---- Link faults through the engine. ----

TEST(FaultLink, TotalLossKillsEveryWalk) {
  FaultNet fn;
  FaultPlan plan;
  plan.default_link.loss = 1.0;
  fn.net->set_fault_plan(plan);
  Connection conn = fn.net->open_connection(fn.client, fn.server_ip);
  EXPECT_EQ(conn.connect(), ConnectResult::kTimeout);
}

TEST(FaultLink, SingleLinkOverrideOnlyAffectsThatLink) {
  FaultNet fn;
  FaultPlan plan;
  FaultProfile lossy;
  lossy.loss = 1.0;
  plan.set_link(fn.r2, fn.r3, lossy);  // deep link dead, access link fine
  fn.net->set_fault_plan(plan);

  Connection conn = fn.net->open_connection(fn.client, fn.server_ip);
  EXPECT_EQ(conn.connect(), ConnectResult::kTimeout);  // SYN dies at r2-r3

  // TTL-1 probing below the dead link still elicits ICMP from r1.
  std::vector<Event> events = fn.net->send_udp(fn.client, fn.server_ip, 53, fn.get(), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<IcmpEvent>(events[0]));
}

TEST(FaultLink, DuplicateDeliveryDoublesReplies) {
  FaultNet fn;
  FaultPlan plan;
  plan.default_link.duplicate = 1.0;
  fn.net->set_fault_plan(plan);
  std::vector<Event> events = fn.net->send_udp(fn.client, fn.server_ip, 53, fn.get(), 1);
  // The single ICMP Time Exceeded arrives twice.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<IcmpEvent>(events[0]));
  EXPECT_TRUE(std::holds_alternative<IcmpEvent>(events[1]));
}

TEST(FaultLink, TruncationAndCorruptionSurvivedByParsers) {
  FaultNet fn;
  FaultPlan plan;
  plan.default_link.truncate = 0.5;
  plan.default_link.corrupt = 0.5;
  fn.net->set_fault_plan(plan);
  // Mangled payloads must degrade results, never crash parser or endpoint.
  for (int i = 0; i < 50; ++i) {
    Connection conn = fn.net->open_connection(fn.client, fn.server_ip);
    if (conn.connect() != ConnectResult::kEstablished) continue;
    EXPECT_NO_THROW(conn.send(fn.get(), 64));
  }
}

// ---- Node (ICMP) faults. ----

TEST(FaultNode, BlackholeSilencesAllRouters) {
  FaultNet fn;
  FaultPlan plan;
  plan.default_node.icmp_blackhole = true;
  fn.net->set_fault_plan(plan);
  std::vector<Event> events = fn.net->send_udp(fn.client, fn.server_ip, 53, fn.get(), 1);
  EXPECT_TRUE(events.empty());  // r1 exists but never answers
}

TEST(FaultNode, TokenBucketRefillsOverSimTime) {
  FaultInjector inj(42);
  FaultPlan plan;
  NodeFaultProfile np;
  np.icmp_rate_per_sec = 1.0;
  np.icmp_burst = 1.0;
  plan.node_overrides[3] = np;
  inj.set_plan(plan);

  EXPECT_TRUE(inj.allow_icmp(3, 0));    // burst token
  EXPECT_FALSE(inj.allow_icmp(3, 0));   // bucket empty
  EXPECT_FALSE(inj.allow_icmp(3, 500)); // half a token refilled
  EXPECT_TRUE(inj.allow_icmp(3, 1600)); // refilled past 1.0
  // Other routers are untouched by the override.
  EXPECT_TRUE(inj.allow_icmp(1, 0));
  EXPECT_TRUE(inj.allow_icmp(1, 0));
}

// ---- Route flapping. ----

TEST(FaultRoute, FlowSaltChangesPerEpochOnly) {
  FaultPlan plan;
  EXPECT_EQ(plan.flow_salt(12345), 0u);  // disabled: salt always 0
  plan.route_flap_period = 60 * kSecond;
  std::uint64_t s0 = plan.flow_salt(0);
  EXPECT_EQ(plan.flow_salt(59 * kSecond), s0);       // same epoch
  EXPECT_NE(plan.flow_salt(61 * kSecond), s0);       // next epoch
  EXPECT_EQ(plan.flow_salt(61 * kSecond), plan.flow_salt(119 * kSecond));
}

TEST(FaultRoute, SaltedRouteStaysOnEqualCostPathsAndVaries) {
  // Diamond: two equal-cost paths; salting must select among them only.
  CompactTopologyBuilder builder;
  NodeId a = builder.add_node("a", net::Ipv4Address(10, 0, 0, 1));
  NodeId up = builder.add_node("up", net::Ipv4Address(10, 0, 1, 1));
  NodeId down = builder.add_node("down", net::Ipv4Address(10, 0, 1, 2));
  NodeId b = builder.add_node("b", net::Ipv4Address(10, 0, 2, 1));
  builder.add_link(a, up);
  builder.add_link(a, down);
  builder.add_link(up, b);
  builder.add_link(down, b);
  const Topology topo(builder.build());

  const auto& paths = topo.equal_cost_paths(a, b);
  ASSERT_EQ(paths.size(), 2u);
  bool saw_up = false, saw_down = false;
  for (std::uint64_t salt = 1; salt <= 16; ++salt) {
    const std::vector<NodeId>& p = topo.route(a, b, /*flow_hash=*/9, salt);
    ASSERT_EQ(p.size(), 3u);
    saw_up |= p[1] == up;
    saw_down |= p[1] == down;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
  // Salt 0 must reduce to the unsalted route exactly.
  EXPECT_EQ(topo.route(a, b, 9, 0), topo.route(a, b, 9));
}

// ---- Management-plane faults (CenProbe degradation). ----

TEST(FaultMgmt, UnreachableManagementRecordsFailedGrabs) {
  FaultNet fn;
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "f1");
  cfg.mgmt_ip = net::Ipv4Address(10, 0, 2, 1);
  fn.net->attach_device(fn.r2, std::make_shared<censor::Device>(cfg));

  FaultPlan plan;
  plan.mgmt_drop = 1.0;
  fn.net->set_fault_plan(plan);

  probe::PortScanResult scan = probe::scan_ports(*fn.net, net::Ipv4Address(10, 0, 2, 1));
  std::vector<probe::BannerGrab> grabs = probe::grab_banners(*fn.net, scan);
  ASSERT_FALSE(grabs.empty());  // skipped-and-recorded, not omitted
  for (const probe::BannerGrab& g : grabs) {
    EXPECT_FALSE(g.complete);
    EXPECT_TRUE(g.banner.empty());
    EXPECT_EQ(g.attempts, probe::kGrabAttempts);
  }
}

TEST(FaultMgmt, TruncatedBannersKeptAsPartials) {
  FaultNet fn;
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "f1");
  cfg.mgmt_ip = net::Ipv4Address(10, 0, 2, 1);
  fn.net->attach_device(fn.r2, std::make_shared<censor::Device>(cfg));

  FaultPlan plan;
  plan.banner_truncate = 1.0;
  fn.net->set_fault_plan(plan);

  probe::PortScanResult scan = probe::scan_ports(*fn.net, net::Ipv4Address(10, 0, 2, 1));
  std::vector<probe::BannerGrab> grabs = probe::grab_banners(*fn.net, scan);
  ASSERT_FALSE(grabs.empty());
  for (const probe::BannerGrab& g : grabs) {
    EXPECT_FALSE(g.complete);
    EXPECT_FALSE(g.banner.empty());  // half banner retained
    EXPECT_EQ(g.attempts, 1);
  }
}

TEST(FaultMgmt, EpochSeedPicksTheBannerRetries) {
  // probe::run resets the epoch to its `seed` before scanning, so the
  // seed decides which grabs the management plane drops: the same seed
  // replays the same report, and seeds differ in their retries.
  FaultNet fn;
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "f1");
  cfg.mgmt_ip = net::Ipv4Address(10, 0, 2, 1);
  fn.net->attach_device(fn.r2, std::make_shared<censor::Device>(cfg));
  FaultPlan plan;
  plan.mgmt_drop = 0.5;
  fn.net->set_fault_plan(plan);

  auto attempts = [&](std::uint64_t seed) {
    const probe::DeviceProbeReport r =
        probe::run(*fn.net, probe::ProbeRunOptions{.ip = *cfg.mgmt_ip, .seed = seed});
    std::vector<int> out;
    for (const probe::BannerGrab& g : r.banners) out.push_back(g.attempts);
    return out;
  };
  std::set<std::vector<int>> seen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(attempts(seed), attempts(seed)) << "seed " << seed;
    seen.insert(attempts(seed));
  }
  EXPECT_GT(seen.size(), 1u);
}

// ---- Ephemeral ports (satellite: wrap regression). ----

TEST(EphemeralPorts, WrapStaysInsidePool) {
  FaultNet fn;
  // Drain more than one full pool (25 000 ports) and check every
  // allocation stays inside [floor, ceiling).
  const int kDraw = (kEphemeralPortCeiling - kEphemeralPortFloor) + 500;
  std::uint16_t prev = 0;
  bool wrapped = false;
  for (int i = 0; i < kDraw; ++i) {
    Connection conn = fn.net->open_connection(fn.client, fn.server_ip);
    std::uint16_t sport = conn.source_port();
    ASSERT_GE(sport, kEphemeralPortFloor);
    ASSERT_LT(sport, kEphemeralPortCeiling);
    if (i > 0 && sport < prev) wrapped = true;
    prev = sport;
  }
  EXPECT_TRUE(wrapped);  // the pool recycled at least once
}

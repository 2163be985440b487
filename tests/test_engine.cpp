#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "censor/vendors.hpp"
#include "net/http.hpp"
#include "netsim/engine.hpp"

using namespace cen;
using namespace cen::sim;

namespace {

/// client(0) - r1(1) - r2(2) - r3(3) - server(4), server hosts example.org.
/// `routers` are r1..r3's profiles (missing ones default); `extend` runs on
/// the builder after the line is laid out (extra hosts, management
/// services).
struct LineNet {
  using Extend = std::function<void(LineNet&, CompactTopologyBuilder&)>;

  explicit LineNet(std::vector<RouterProfile> routers = {}, const Extend& extend = {}) {
    routers.resize(3);
    CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1), routers[0]);
    r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1), routers[1]);
    r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1), routers[2]);
    server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, r1);
    topo.add_link(r1, r2);
    topo.add_link(r2, r3);
    topo.add_link(r3, server);
    if (extend) extend(*this, topo);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 8, {64512, "TESTNET", "XX"});
    net = std::make_unique<Network>(Topology(topo.build()), std::move(db));
    EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, profile);
  }

  Bytes get(const std::string& host) {
    return net::HttpRequest::get(host).serialize_bytes();
  }

  NodeId client, r1, r2, r3, server;
  net::Ipv4Address server_ip{net::Ipv4Address(10, 0, 9, 1)};
  std::unique_ptr<Network> net;
};

int count_icmp(const std::vector<Event>& events) {
  int n = 0;
  for (const Event& e : events) {
    if (std::holds_alternative<IcmpEvent>(e)) ++n;
  }
  return n;
}

const net::Packet* first_tcp(const std::vector<Event>& events) {
  for (const Event& e : events) {
    if (const auto* t = std::get_if<TcpEvent>(&e)) return &t->packet;
  }
  return nullptr;
}

}  // namespace

TEST(Engine, ConnectEstablishes) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  EXPECT_EQ(conn.connect(), ConnectResult::kEstablished);
  EXPECT_EQ(conn.path().size(), 5u);
}

TEST(Engine, ConnectToNowhereTimesOut) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, net::Ipv4Address(10, 0, 3, 1));
  // r3 is a router, not an endpoint: SYN is swallowed.
  EXPECT_EQ(conn.connect(), ConnectResult::kTimeout);
}

TEST(Engine, ConnectToUnknownIpTimesOut) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, net::Ipv4Address(99, 9, 9, 9));
  EXPECT_EQ(conn.connect(), ConnectResult::kTimeout);
}

TEST(Engine, SendBeforeConnectIsNoop) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  EXPECT_TRUE(conn.send(ln.get("www.example.org"), 64).empty());
}

TEST(Engine, TtlExhaustionYieldsIcmpPerHop) {
  LineNet ln;
  for (int ttl = 1; ttl <= 3; ++ttl) {
    Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
    ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
    std::vector<Event> events = conn.send(ln.get("www.example.org"),
                                          static_cast<std::uint8_t>(ttl));
    ASSERT_EQ(events.size(), 1u) << "ttl=" << ttl;
    const auto* icmp = std::get_if<IcmpEvent>(&events[0]);
    ASSERT_NE(icmp, nullptr);
    EXPECT_EQ(icmp->router, net::Ipv4Address(10, 0, static_cast<uint8_t>(ttl), 1));
  }
}

TEST(Engine, EndpointRespondsAtItsHopDistance) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  std::vector<Event> events = conn.send(ln.get("www.example.org"), 4);
  const net::Packet* data = first_tcp(events);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->ip.src, ln.server_ip);
  auto resp = net::HttpResponse::parse(to_string(data->payload));
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->status, 200);
}

TEST(Engine, SilentRouterProducesTimeout) {
  RouterProfile silent;
  silent.responds_icmp = false;
  LineNet ln({RouterProfile{}, silent});
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  EXPECT_TRUE(conn.send(ln.get("www.example.org"), 2).empty());
}

TEST(Engine, QuotePolicyControlsQuoteLength) {
  RouterProfile full, minimal;
  full.quote_policy = net::QuotePolicy::kRfc1812Full;
  minimal.quote_policy = net::QuotePolicy::kRfc792;
  LineNet ln({full, minimal});
  std::size_t quote_len[3] = {0, 0, 0};
  for (int ttl = 1; ttl <= 2; ++ttl) {
    Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
    ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
    auto events = conn.send(ln.get("www.example.org"), static_cast<std::uint8_t>(ttl));
    ASSERT_FALSE(events.empty());
    quote_len[ttl] = std::get<IcmpEvent>(events[0]).quoted.size();
  }
  EXPECT_GT(quote_len[1], 28u);   // full quote
  EXPECT_EQ(quote_len[2], 28u);   // minimal quote
}

TEST(Engine, TosRewriteVisibleInDownstreamQuote) {
  RouterProfile tos;
  tos.rewrite_tos = 0x40;
  LineNet ln({tos});
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  auto events = conn.send(ln.get("www.example.org"), 2);
  ASSERT_FALSE(events.empty());
  const auto& icmp = std::get<IcmpEvent>(events[0]);
  bool complete = false;
  net::Packet quoted = net::Packet::parse_quoted(icmp.quoted, complete);
  EXPECT_EQ(quoted.ip.tos, 0x40);  // rewritten upstream of the quoting hop
}

TEST(Engine, InPathDeviceConsumesAndNoIcmp) {
  LineNet ln;
  censor::DeviceConfig cfg;
  cfg.id = "dropper";
  cfg.action = censor::BlockAction::kDrop;
  cfg.http_rules.add("blocked.example");
  ln.net->attach_device(ln.r3, std::make_shared<censor::Device>(cfg));

  // Probe that would expire exactly at the device's router: the device
  // consumes it first, so not even ICMP comes back.
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  EXPECT_TRUE(conn.send(ln.get("www.blocked.example"), 3).empty());
  // Control traffic still passes and the router still answers.
  Connection control = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(control.connect(), ConnectResult::kEstablished);
  EXPECT_EQ(count_icmp(control.send(ln.get("www.example.org"), 3)), 1);
}

TEST(Engine, OnPathTapInjectsAlongsideIcmp) {
  LineNet ln;
  censor::DeviceConfig cfg;
  cfg.id = "tap";
  cfg.on_path = true;
  cfg.action = censor::BlockAction::kRstInject;
  cfg.http_rules.add("blocked.example");
  ln.net->attach_device(ln.r3, std::make_shared<censor::Device>(cfg));

  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  std::vector<Event> events = conn.send(ln.get("www.blocked.example"), 3);
  // Both the injected RST and the ICMP from r3 arrive (Fig. 2 D).
  EXPECT_EQ(count_icmp(events), 1);
  const net::Packet* rst = first_tcp(events);
  ASSERT_NE(rst, nullptr);
  EXPECT_TRUE(rst->tcp.has(net::TcpFlags::kRst));
  EXPECT_EQ(rst->ip.src, ln.server_ip);  // spoofed

  // With enough TTL the request also reaches the endpoint: injected RST
  // plus the genuine response.
  Connection conn2 = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn2.connect(), ConnectResult::kEstablished);
  std::vector<Event> full = conn2.send(ln.get("www.blocked.example"), 64);
  int tcp_count = 0;
  for (const Event& e : full) {
    if (std::holds_alternative<TcpEvent>(e)) ++tcp_count;
  }
  EXPECT_EQ(tcp_count, 2);
}

TEST(Engine, TtlCopyInjectionDecaysOnReturn) {
  LineNet ln;
  censor::DeviceConfig cfg;
  cfg.id = "copier";
  cfg.action = censor::BlockAction::kRstInject;
  cfg.injection.copy_ttl_from_trigger = true;
  cfg.http_rules.add("blocked.example");
  ln.net->attach_device(ln.r3, std::make_shared<censor::Device>(cfg));

  // Device sits at hop 3. Probe TTL t reaches it with t-2 remaining; the
  // reset must cross 2 routers back, so it arrives only when t-2 > 2.
  for (int ttl = 3; ttl <= 4; ++ttl) {
    Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
    ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
    EXPECT_TRUE(conn.send(ln.get("www.blocked.example"), static_cast<std::uint8_t>(ttl)).empty())
        << "ttl=" << ttl;
  }
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  std::vector<Event> events = conn.send(ln.get("www.blocked.example"), 5);
  const net::Packet* rst = first_tcp(events);
  ASSERT_NE(rst, nullptr);
  EXPECT_EQ(rst->ip.ttl, 1);  // the paper's tell-tale TTL=1 reset
}

TEST(Engine, LocalFilterDropAtEndpoint) {
  NodeId ep2 = kInvalidNode;
  LineNet ln({}, [&](LineNet& l, CompactTopologyBuilder& b) {
    ep2 = b.add_node("ep2", net::Ipv4Address(10, 0, 9, 2));
    b.add_link(l.r3, ep2);
  });
  EndpointProfile filtered;
  filtered.hosted_domains = {"www.filtered.org"};
  filtered.local_filter = LocalFilterAction::kDrop;
  filtered.local_filter_rules.add("blocked.example");
  ln.net->add_endpoint(ep2, filtered);

  Connection conn = ln.net->open_connection(ln.client, net::Ipv4Address(10, 0, 9, 2));
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  EXPECT_TRUE(conn.send(ln.get("www.blocked.example"), 64).empty());
  Connection control = ln.net->open_connection(ln.client, net::Ipv4Address(10, 0, 9, 2));
  ASSERT_EQ(control.connect(), ConnectResult::kEstablished);
  EXPECT_FALSE(control.send(ln.get("www.benign.example"), 64).empty());
}

TEST(Engine, TransientLossIsRecoverable) {
  LineNet ln;
  ln.net->set_transient_loss(0.5);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
    if (conn.connect() != ConnectResult::kEstablished) continue;
    if (!conn.send(ln.get("www.example.org"), 64).empty()) ++delivered;
  }
  EXPECT_GT(delivered, 20);
  EXPECT_LT(delivered, 180);
}

TEST(Engine, ScanServicesFindsDeviceAndRouterPlanes) {
  LineNet ln({}, [](LineNet& l, CompactTopologyBuilder& b) {
    b.add_service(l.r1, {22, "ssh", "SSH-2.0-OpenSSH"});
  });
  censor::DeviceConfig cfg = censor::make_vendor_device("Cisco", "c1");
  cfg.mgmt_ip = net::Ipv4Address(10, 0, 3, 1);
  ln.net->attach_device(ln.r3, std::make_shared<censor::Device>(cfg));

  EXPECT_FALSE(ln.net->scan_services(net::Ipv4Address(10, 0, 3, 1)).empty());
  EXPECT_EQ(ln.net->scan_services(net::Ipv4Address(10, 0, 1, 1)).size(), 1u);
  EXPECT_TRUE(ln.net->scan_services(net::Ipv4Address(10, 0, 2, 1)).empty());
  EXPECT_TRUE(ln.net->scan_services(net::Ipv4Address(1, 2, 3, 4)).empty());
}

TEST(Engine, FreshConnectionsGetFreshPorts) {
  LineNet ln;
  Connection a = ln.net->open_connection(ln.client, ln.server_ip);
  Connection b = ln.net->open_connection(ln.client, ln.server_ip);
  EXPECT_NE(a.source_port(), b.source_port());
}

TEST(Engine, ResetDeviceState) {
  LineNet ln;
  censor::DeviceConfig cfg;
  cfg.id = "d";
  cfg.action = censor::BlockAction::kDrop;
  cfg.residual_block_ms = 1000000;
  cfg.http_rules.add("blocked.example");
  auto dev = std::make_shared<censor::Device>(cfg);
  ln.net->attach_device(ln.r3, dev);
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn.connect(), ConnectResult::kEstablished);
  conn.send(ln.get("www.blocked.example"), 64);
  EXPECT_GT(dev->trigger_count(), 0u);
  ln.net->reset_device_state();
  // Residual state cleared: benign traffic passes immediately.
  Connection conn2 = ln.net->open_connection(ln.client, ln.server_ip);
  ASSERT_EQ(conn2.connect(), ConnectResult::kEstablished);
  EXPECT_FALSE(conn2.send(ln.get("www.example.org"), 64).empty());
}

TEST(Engine, ClosedPortAnswersRst) {
  LineNet ln;
  Connection conn = ln.net->open_connection(ln.client, ln.server_ip, 8080);
  EXPECT_EQ(conn.connect(), ConnectResult::kReset);
}

TEST(Engine, OpenPortListConfigurable) {
  NodeId ep2 = kInvalidNode;
  LineNet ln({}, [&](LineNet& l, CompactTopologyBuilder& b) {
    ep2 = b.add_node("ep2", net::Ipv4Address(10, 0, 9, 3));
    b.add_link(l.r3, ep2);
  });
  sim::EndpointProfile custom;
  custom.hosted_domains = {"svc.example"};
  custom.open_ports = {8443};
  ln.net->add_endpoint(ep2, custom);
  Connection on_8443 = ln.net->open_connection(ln.client, net::Ipv4Address(10, 0, 9, 3), 8443);
  EXPECT_EQ(on_8443.connect(), ConnectResult::kEstablished);
  Connection on_80 = ln.net->open_connection(ln.client, net::Ipv4Address(10, 0, 9, 3), 80);
  EXPECT_EQ(on_80.connect(), ConnectResult::kReset);
}

// ---------------------------------------------------------------------------
// Network::fingerprint sensitivity: the endpoint table digests each distinct
// profile once, so these pin that sharing is invisible and content is not.

namespace {

constexpr int kStarHosts = 6;

/// A hub router with kStarHosts leaves; `as_name` labels the 10/8 route.
std::unique_ptr<Network> star_network(const std::string& as_name = "TESTNET") {
  CompactTopologyBuilder topo;
  NodeId hub = topo.add_node("hub", net::Ipv4Address(10, 0, 0, 1));
  for (int i = 0; i < kStarHosts; ++i) {
    NodeId leaf = topo.add_node("", net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)));
    topo.add_link(hub, leaf);
  }
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 8, {64512, as_name, "XX"});
  return std::make_unique<Network>(sim::Topology(topo.build()), std::move(db));
}

EndpointProfile template_profile(const std::string& domain) {
  EndpointProfile p;
  p.hosted_domains = {domain};
  p.reject_unknown_host = true;
  return p;
}

NodeId leaf(int i) { return static_cast<NodeId>(i + 1); }

using ProfilePtr = std::shared_ptr<const EndpointProfile>;

/// Every leaf in one add_endpoints call: leaf i serves profiles[profile_of[i]].
void add_leaves(Network& net, const std::vector<std::uint16_t>& profile_of,
                const std::vector<ProfilePtr>& profiles) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < profile_of.size(); ++i) nodes.push_back(leaf(static_cast<int>(i)));
  net.add_endpoints(nodes, profile_of, profiles);
}

/// A profile listening on port 8000 + i only, so a connect shows which
/// host answers an address.
EndpointProfile port_profile(int i) {
  EndpointProfile p;
  p.hosted_domains = {"host" + std::to_string(i) + ".example"};
  p.open_ports = {static_cast<std::uint16_t>(8000 + i)};
  return p;
}

/// Which of the port_profile ports leaf i's address accepts, as a digit
/// string over hosts 0..kStarHosts-1 ('1' established, '0' otherwise).
std::string accepted_ports(Network& net, int i) {
  std::string out;
  for (int j = 0; j < kStarHosts; ++j) {
    Connection c = net.open_connection(
        0, net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)),
        static_cast<std::uint16_t>(8000 + j));
    out += c.connect() == ConnectResult::kEstablished ? '1' : '0';
  }
  return out;
}

}  // namespace

TEST(NetworkFingerprint, SharedTemplateEqualsEqualCopies) {
  // One template shared by every host, an equal copy per host, and two
  // equal templates taken in turn all digest alike.
  auto tpl = std::make_shared<const EndpointProfile>(template_profile("tpl.example"));
  auto twin = std::make_shared<const EndpointProfile>(*tpl);
  auto shared = star_network();
  auto copies = star_network();
  auto twins = star_network();
  add_leaves(*shared, std::vector<std::uint16_t>(kStarHosts, 0), {tpl});
  std::vector<std::uint16_t> alternate;
  for (int i = 0; i < kStarHosts; ++i) {
    copies->add_endpoint(leaf(i), *tpl);
    alternate.push_back(static_cast<std::uint16_t>(i % 2));
  }
  add_leaves(*twins, alternate, {tpl, twin});
  EXPECT_EQ(shared->fingerprint(), copies->fingerprint());
  EXPECT_EQ(twins->fingerprint(), copies->fingerprint());
  EXPECT_EQ(shared->clone()->fingerprint(), shared->fingerprint());
}

TEST(NetworkFingerprint, OneHostProfileFieldMovesIt) {
  auto tpl = std::make_shared<const EndpointProfile>(template_profile("tpl.example"));
  EndpointProfile changed = *tpl;
  changed.strict_http = true;
  auto base = star_network();
  auto edited = star_network();
  std::vector<std::uint16_t> profile_of(kStarHosts, 0);
  add_leaves(*base, profile_of, {tpl});
  profile_of[3] = 1;
  add_leaves(*edited, profile_of, {tpl, std::make_shared<const EndpointProfile>(changed)});
  EXPECT_NE(base->fingerprint(), edited->fingerprint());
}

TEST(NetworkFingerprint, SwappingTwoHostsProfilesMovesIt) {
  auto a = std::make_shared<const EndpointProfile>(template_profile("a.example"));
  auto b = std::make_shared<const EndpointProfile>(template_profile("b.example"));
  auto base = star_network();
  auto swapped = star_network();
  std::vector<std::uint16_t> profile_of(kStarHosts, 0);
  profile_of[1] = 1;
  add_leaves(*base, profile_of, {a, b});
  std::swap(profile_of[1], profile_of[2]);
  add_leaves(*swapped, profile_of, {a, b});
  EXPECT_NE(base->fingerprint(), swapped->fingerprint());
}

TEST(NetworkFingerprint, FirstRegistrationOfAnAddressWins) {
  // A second registration of an address is ignored, per host and in bulk:
  // the network answers and digests as if only the first were made.
  auto first = std::make_shared<const EndpointProfile>(port_profile(0));
  auto second = std::make_shared<const EndpointProfile>(port_profile(1));
  auto single = star_network();
  single->add_endpoint(leaf(0), *first);
  auto per_host = star_network();
  per_host->add_endpoint(leaf(0), *first);
  per_host->add_endpoint(leaf(0), *second);
  auto bulk = star_network();
  bulk->add_endpoints(std::vector<NodeId>{leaf(0), leaf(0)}, std::vector<std::uint16_t>{0, 1},
                      std::vector<ProfilePtr>{first, second});
  auto mixed = star_network();
  mixed->add_endpoint(leaf(0), *first);
  mixed->add_endpoints(std::vector<NodeId>{leaf(0)}, std::vector<std::uint16_t>{0},
                       std::vector<ProfilePtr>{second});
  for (Network* net : {per_host.get(), bulk.get(), mixed.get()}) {
    EXPECT_EQ(net->fingerprint(), single->fingerprint());
    EXPECT_EQ(accepted_ports(*net, 0), "100000");
  }
}

TEST(NetworkFingerprint, RegistrationOrderIsInvisible) {
  // Hosts registered against descending addresses are found and digested
  // as when registered ascending; the pin was taken before the endpoint
  // table became ip/host columns.
  auto ascending = star_network();
  auto descending = star_network();
  auto bulk = star_network();
  std::vector<NodeId> nodes;
  std::vector<std::uint16_t> profile_of;
  std::vector<ProfilePtr> profiles;
  for (int i = 0; i < kStarHosts; ++i) {
    ascending->add_endpoint(leaf(i), port_profile(i));
    descending->add_endpoint(leaf(kStarHosts - 1 - i), port_profile(kStarHosts - 1 - i));
    nodes.push_back(leaf(kStarHosts - 1 - i));
    profile_of.push_back(static_cast<std::uint16_t>(i));
    profiles.push_back(std::make_shared<const EndpointProfile>(port_profile(kStarHosts - 1 - i)));
  }
  bulk->add_endpoints(nodes, profile_of, profiles);
  EXPECT_EQ(ascending->fingerprint(), 0x45e5e798e234e721ULL);
  for (Network* net : {descending.get(), bulk.get()}) {
    EXPECT_EQ(net->fingerprint(), ascending->fingerprint());
    for (int i = 0; i < kStarHosts; ++i) {
      std::string want(kStarHosts, '0');
      want[static_cast<std::size_t>(i)] = '1';
      EXPECT_EQ(accepted_ports(*net, i), want) << "leaf " << i;
    }
  }
}

TEST(NetworkFingerprint, BulkRegistrationRejectsBadColumns) {
  auto tpl = std::make_shared<const EndpointProfile>(template_profile("tpl.example"));
  auto net = star_network();
  const std::uint64_t empty = net->fingerprint();
  EXPECT_THROW(net->add_endpoints(std::vector<NodeId>{leaf(0), leaf(1)},
                                  std::vector<std::uint16_t>{0}, std::vector<ProfilePtr>{tpl}),
               std::invalid_argument);
  EXPECT_THROW(net->add_endpoints(std::vector<NodeId>{leaf(0)}, std::vector<std::uint16_t>{1},
                                  std::vector<ProfilePtr>{tpl}),
               std::out_of_range);
  EXPECT_EQ(net->fingerprint(), empty);
}

TEST(NetworkFingerprint, Regression_GeodbAsNameMovesIt) {
  // CenTrace reports carry the blocking hop's AS number, name and country
  // from the geodb, so two sites differing only in an AS label must not
  // share cache keys.
  auto a = star_network("TESTNET");
  auto b = star_network("OTHERNET");
  EXPECT_NE(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(a->fingerprint(), star_network("TESTNET")->fingerprint());
}

TEST(NetworkFingerprint, Regression_DeviceQuirkListsAreDelimited) {
  // The TLS version list and the blind-suite list were mixed back to back
  // without their lengths, so moving the last version code into the suite
  // list left the word stream, and the cache keys, unchanged.
  censor::DeviceConfig versions;
  versions.id = "dpi";
  versions.tls_quirks.parses_versions = {net::TlsVersion::kTls12};
  censor::DeviceConfig suites = versions;
  suites.tls_quirks.parses_versions.clear();
  suites.tls_quirks.blind_cipher_suites = {
      static_cast<std::uint16_t>(net::TlsVersion::kTls12)};
  auto a = star_network();
  auto b = star_network();
  a->attach_device(0, std::make_shared<censor::Device>(versions));
  b->attach_device(0, std::make_shared<censor::Device>(suites));
  EXPECT_NE(a->fingerprint(), b->fingerprint());
}

// UDP substrate + DNS-over-UDP censorship: wire format, engine walk,
// resolver answers, forged-answer races, and CenTrace localisation.
#include <gtest/gtest.h>

#include <functional>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "net/dns.hpp"
#include "net/udp.hpp"

using namespace cen;
using namespace cen::net;

TEST(UdpHeader, RoundTrip) {
  UdpHeader h;
  h.src_port = 40001;
  h.dst_port = 53;
  h.length = 20;
  Bytes wire = h.serialize();
  EXPECT_EQ(wire.size(), 8u);
  ByteReader r(wire);
  EXPECT_EQ(UdpHeader::parse(r), h);
}

TEST(UdpHeader, RejectsBadLength) {
  Bytes wire = {0, 1, 0, 2, 0, 3, 0, 0};  // length 3 < 8
  ByteReader r(wire);
  EXPECT_THROW(UdpHeader::parse(r), ParseError);
}

TEST(UdpDatagram, RoundTrip) {
  UdpDatagram d = make_udp_datagram(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 53),
                                    40001, 53, make_dns_query("www.x.com").serialize(), 7);
  Bytes wire = d.serialize();
  UdpDatagram parsed = UdpDatagram::parse(wire);
  EXPECT_EQ(parsed.ip.src, d.ip.src);
  EXPECT_EQ(parsed.ip.protocol, IpProto::kUdp);
  EXPECT_EQ(parsed.udp.src_port, 40001);
  EXPECT_EQ(parsed.udp.length, 8 + d.payload.size());
  EXPECT_EQ(parsed.payload, d.payload);
}

TEST(UdpDatagram, RejectsTcp) {
  net::Packet tcp = make_tcp_packet(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1,
                                    2, TcpFlags::kSyn, 0, 0, {});
  EXPECT_THROW(UdpDatagram::parse(tcp.serialize()), ParseError);
}

namespace {

/// client - r1 - r2 - r3 - resolver (UDP port 53). `extend` runs on the
/// builder after the line is laid out.
struct UdpNet {
  using Extend = std::function<void(UdpNet&, sim::CompactTopologyBuilder&)>;

  explicit UdpNet(const Extend& extend = {}) {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", Ipv4Address(10, 0, 0, 1));
    for (int i = 0; i < 3; ++i) {
      routers[i] = topo.add_node("r" + std::to_string(i + 1),
                                 Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
    }
    resolver = topo.add_node("resolver", Ipv4Address(10, 0, 9, 53));
    topo.add_link(client, routers[0]);
    topo.add_link(routers[0], routers[1]);
    topo.add_link(routers[1], routers[2]);
    topo.add_link(routers[2], resolver);
    if (extend) extend(*this, topo);
    geo::IpMetadataDb db;
    db.add_route(Ipv4Address(10, 0, 0, 0), 16, {64512, "UDP-AS", "XX"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"resolver.example"};
    profile.is_dns_resolver = true;
    net->add_endpoint(resolver, profile);
  }

  std::vector<sim::Event> query(const std::string& domain, std::uint8_t ttl = 64) {
    return net->send_udp(client, Ipv4Address(10, 0, 9, 53), 53,
                         make_dns_query(domain).serialize(), ttl);
  }

  sim::NodeId client, resolver;
  sim::NodeId routers[3];
  std::unique_ptr<sim::Network> net;
};

int count_udp(const std::vector<sim::Event>& events) {
  int n = 0;
  for (const sim::Event& e : events) {
    if (std::holds_alternative<sim::UdpEvent>(e)) ++n;
  }
  return n;
}

}  // namespace

TEST(UdpEngine, ResolverAnswersBareQueries) {
  UdpNet un;
  std::vector<sim::Event> events = un.query("www.example.com");
  ASSERT_EQ(count_udp(events), 1);
  const auto& answer = std::get<sim::UdpEvent>(events[0]).datagram;
  EXPECT_EQ(answer.ip.src, Ipv4Address(10, 0, 9, 53));
  EXPECT_EQ(answer.udp.src_port, 53);
  DnsMessage msg = DnsMessage::parse(answer.payload);
  EXPECT_TRUE(msg.is_response);
  ASSERT_EQ(msg.answers.size(), 1u);
}

TEST(UdpEngine, TtlExpiryYieldsIcmp) {
  UdpNet un;
  std::vector<sim::Event> events = un.query("www.example.com", 2);
  ASSERT_EQ(events.size(), 1u);
  const auto* icmp = std::get_if<sim::IcmpEvent>(&events[0]);
  ASSERT_NE(icmp, nullptr);
  EXPECT_EQ(icmp->router, Ipv4Address(10, 0, 2, 1));
  // The quote carries the UDP probe (ports recoverable at TCP offsets).
  bool complete = false;
  net::Packet quoted = net::Packet::parse_quoted(icmp->quoted, complete);
  EXPECT_EQ(quoted.ip.protocol, IpProto::kUdp);
  EXPECT_EQ(quoted.tcp.dst_port, 53);
}

TEST(UdpEngine, NonResolverStaysSilent) {
  sim::NodeId ep = sim::kInvalidNode;
  UdpNet un([&](UdpNet& u, sim::CompactTopologyBuilder& b) {
    ep = b.add_node("web", Ipv4Address(10, 0, 9, 80));
    b.add_link(u.routers[2], ep);
  });
  sim::EndpointProfile web;
  web.hosted_domains = {"www.example.org"};  // not a resolver
  un.net->add_endpoint(ep, web);
  EXPECT_TRUE(un.net->send_udp(un.client, Ipv4Address(10, 0, 9, 80), 53,
                               make_dns_query("x").serialize()).empty());
}

TEST(UdpEngine, InPathInjectorForgesAndDrops) {
  UdpNet un;
  censor::DeviceConfig cfg;
  cfg.id = "dns-udp-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  un.net->attach_device(un.routers[1], std::make_shared<censor::Device>(cfg));

  std::vector<sim::Event> events = un.query("www.blocked.example");
  ASSERT_EQ(count_udp(events), 1);  // only the forged answer; original consumed
  const auto& forged = std::get<sim::UdpEvent>(events[0]).datagram;
  DnsMessage msg = DnsMessage::parse(forged.payload);
  ASSERT_EQ(msg.answers.size(), 1u);
  EXPECT_EQ(msg.answers[0].address, censor::dns_sinkhole_address());
  // Benign names pass untouched.
  EXPECT_EQ(count_udp(un.query("www.benign.example")), 1);
}

TEST(UdpEngine, OnPathInjectorRacesGenuineAnswer) {
  // The GFW-style race: the tap cannot drop, so the client receives BOTH
  // the forged answer (first — injected closer) and the genuine one.
  UdpNet un;
  censor::DeviceConfig cfg;
  cfg.id = "dns-udp-tap";
  cfg.on_path = true;
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  un.net->attach_device(un.routers[1], std::make_shared<censor::Device>(cfg));

  std::vector<sim::Event> events = un.query("www.blocked.example");
  ASSERT_EQ(count_udp(events), 2);
  DnsMessage first = DnsMessage::parse(std::get<sim::UdpEvent>(events[0]).datagram.payload);
  DnsMessage second = DnsMessage::parse(std::get<sim::UdpEvent>(events[1]).datagram.payload);
  EXPECT_TRUE(censor::match_dns_sinkhole(first.answers.at(0).address));   // forged wins
  EXPECT_FALSE(censor::match_dns_sinkhole(second.answers.at(0).address));  // real follows
}

TEST(UdpEngine, DroppingCensorSilences) {
  UdpNet un;
  censor::DeviceConfig cfg;
  cfg.id = "dns-udp-dropper";
  cfg.action = censor::BlockAction::kDrop;
  cfg.dns_rules.add("blocked.example");
  un.net->attach_device(un.routers[0], std::make_shared<censor::Device>(cfg));
  EXPECT_TRUE(un.query("www.blocked.example").empty());
  EXPECT_EQ(count_udp(un.query("www.benign.example")), 1);
}

TEST(CenTraceDnsUdp, LocatesInjector) {
  UdpNet un;
  censor::DeviceConfig cfg;
  cfg.id = "dns-udp-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  un.net->attach_device(un.routers[1], std::make_shared<censor::Device>(cfg));

  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  opts.protocol = trace::ProbeProtocol::kDnsUdp;
  trace::CenTrace tracer(*un.net, un.client, opts);
  trace::CenTraceReport r = tracer.measure(Ipv4Address(10, 0, 9, 53),
                                           "www.blocked.example", "www.benign.example");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, trace::BlockingType::kHttpBlockpage);
  EXPECT_EQ(r.blocking_hop_ttl, 2);
  ASSERT_TRUE(r.blocking_hop_ip);
  EXPECT_EQ(*r.blocking_hop_ip, Ipv4Address(10, 0, 2, 1));
  EXPECT_EQ(r.placement, trace::DevicePlacement::kInPath);
  EXPECT_EQ(r.endpoint_hop_distance, 4);
}

TEST(CenTraceDnsUdp, OnPathInjectorClassified) {
  UdpNet un;
  censor::DeviceConfig cfg;
  cfg.id = "dns-udp-tap";
  cfg.on_path = true;
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  un.net->attach_device(un.routers[1], std::make_shared<censor::Device>(cfg));

  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  opts.protocol = trace::ProbeProtocol::kDnsUdp;
  trace::CenTrace tracer(*un.net, un.client, opts);
  trace::CenTraceReport r = tracer.measure(Ipv4Address(10, 0, 9, 53),
                                           "www.blocked.example", "www.benign.example");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.placement, trace::DevicePlacement::kOnPath);
  EXPECT_EQ(r.blocking_hop_ttl, 2);  // first hop with forged answer + ICMP
}

TEST(CenTraceDnsUdp, CleanResolverNotBlocked) {
  UdpNet un;
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  opts.protocol = trace::ProbeProtocol::kDnsUdp;
  trace::CenTrace tracer(*un.net, un.client, opts);
  trace::CenTraceReport r = tracer.measure(Ipv4Address(10, 0, 9, 53),
                                           "www.any.example", "www.other.example");
  EXPECT_FALSE(r.blocked);
  EXPECT_EQ(r.endpoint_hop_distance, 4);
}

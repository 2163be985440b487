#include <gtest/gtest.h>

#include "censor/device.hpp"
#include "censor/vendors.hpp"
#include "net/dns.hpp"
#include "netsim/endpoint.hpp"

using namespace cen;
using namespace cen::net;

TEST(DnsName, EncodeDecodeRoundTrip) {
  for (const char* name : {"www.example.com", "a.b", "x", "bridges.torproject.org"}) {
    Bytes encoded = encode_dns_name(name);
    ByteReader r(encoded);
    EXPECT_EQ(decode_dns_name(r), name);
    EXPECT_TRUE(r.done());
  }
}

TEST(DnsName, WireShape) {
  EXPECT_EQ(to_hex(encode_dns_name("ab.c")), "0261620163" "00");
}

TEST(DnsName, OversizedLabelThrows) {
  std::string big(64, 'a');
  EXPECT_THROW(encode_dns_name(big + ".com"), ParseError);
}

TEST(DnsName, CompressionPointerRejected) {
  Bytes data = {0xc0, 0x0c};
  ByteReader r(data);
  EXPECT_THROW(decode_dns_name(r), ParseError);
}

TEST(DnsMessage, QueryRoundTrip) {
  DnsMessage q = make_dns_query("www.blocked.example", 0xabcd);
  DnsMessage parsed = DnsMessage::parse(q.serialize());
  EXPECT_EQ(parsed.id, 0xabcd);
  EXPECT_FALSE(parsed.is_response);
  EXPECT_TRUE(parsed.recursion_desired);
  ASSERT_EQ(parsed.questions.size(), 1u);
  EXPECT_EQ(parsed.questions[0].qname, "www.blocked.example");
  EXPECT_EQ(parsed.questions[0].qtype, 1);
}

TEST(DnsMessage, ResponseRoundTrip) {
  DnsMessage q = make_dns_query("x.org");
  DnsMessage resp = make_dns_response(q, Ipv4Address(192, 0, 2, 7));
  DnsMessage parsed = DnsMessage::parse(resp.serialize());
  EXPECT_TRUE(parsed.is_response);
  EXPECT_EQ(parsed.rcode, DnsRcode::kNoError);
  EXPECT_EQ(parsed.id, q.id);
  ASSERT_EQ(parsed.answers.size(), 1u);
  EXPECT_EQ(parsed.answers[0].address, Ipv4Address(192, 0, 2, 7));
  EXPECT_EQ(parsed.answers[0].name, "x.org");
}

TEST(DnsMessage, NxDomainRoundTrip) {
  DnsMessage q = make_dns_query("missing.example");
  DnsMessage parsed = DnsMessage::parse(make_dns_nxdomain(q).serialize());
  EXPECT_TRUE(parsed.is_response);
  EXPECT_EQ(parsed.rcode, DnsRcode::kNxDomain);
  EXPECT_TRUE(parsed.answers.empty());
}

TEST(DnsMessage, TcpFramingRoundTrip) {
  DnsMessage q = make_dns_query("www.example.com");
  Bytes framed = q.serialize_tcp();
  EXPECT_TRUE(looks_like_tcp_dns(framed));
  DnsMessage parsed = DnsMessage::parse_tcp(framed);
  EXPECT_EQ(parsed.questions[0].qname, "www.example.com");
}

TEST(DnsMessage, TcpLengthMismatchThrows) {
  Bytes framed = make_dns_query("a.b").serialize_tcp();
  framed.push_back(0);
  EXPECT_THROW(DnsMessage::parse_tcp(framed), ParseError);
}

TEST(LooksLikeTcpDns, NegativeCases) {
  EXPECT_FALSE(looks_like_tcp_dns(to_bytes("GET / HTTP/1.1\r\n")));
  EXPECT_FALSE(looks_like_tcp_dns(Bytes{}));
  EXPECT_FALSE(looks_like_tcp_dns(Bytes{0x00, 0x01, 0x02}));
}

TEST(DnsSinkhole, Fingerprints) {
  EXPECT_TRUE(censor::match_dns_sinkhole(censor::dns_sinkhole_address()));
  EXPECT_FALSE(censor::match_dns_sinkhole(Ipv4Address(8, 8, 8, 8)));
}

TEST(DnsDevice, TriggersOnQueryName) {
  censor::DeviceConfig cfg;
  cfg.id = "dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  censor::Device dev(cfg);

  EXPECT_TRUE(dev.payload_triggers(make_dns_query("www.blocked.example").serialize_tcp()));
  EXPECT_FALSE(dev.payload_triggers(make_dns_query("www.benign.example").serialize_tcp()));
  // Responses never trigger (direction matters).
  DnsMessage resp =
      make_dns_response(make_dns_query("www.blocked.example"), Ipv4Address(1, 2, 3, 4));
  EXPECT_FALSE(dev.payload_triggers(resp.serialize_tcp()));
}

TEST(DnsDevice, EmptyDnsRulesIgnoresDns) {
  censor::DeviceConfig cfg;
  cfg.id = "http-only";
  cfg.action = censor::BlockAction::kDrop;
  cfg.http_rules.add("blocked.example");
  censor::Device dev(cfg);
  EXPECT_FALSE(dev.payload_triggers(make_dns_query("www.blocked.example").serialize_tcp()));
}

TEST(DnsDevice, InjectsSinkholeAnswer) {
  censor::DeviceConfig cfg;
  cfg.id = "dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  censor::Device dev(cfg);

  net::Packet pkt = make_tcp_packet(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 1),
                                    40000, 53, TcpFlags::kPsh | TcpFlags::kAck, 1, 1,
                                    make_dns_query("www.blocked.example").serialize_tcp());
  censor::Verdict v = dev.inspect(pkt, 0);
  ASSERT_EQ(v.inject_to_client.size(), 1u);
  DnsMessage forged = DnsMessage::parse_tcp(v.inject_to_client[0].payload);
  ASSERT_EQ(forged.answers.size(), 1u);
  EXPECT_EQ(forged.answers[0].address, censor::dns_sinkhole_address());
  EXPECT_EQ(forged.id, 0x1234);  // echoes the query id
}

TEST(DnsDevice, InjectsNxDomainWithoutSinkhole) {
  censor::DeviceConfig cfg;
  cfg.id = "dns-nx";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  censor::Device dev(cfg);
  net::Packet pkt = make_tcp_packet(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 1),
                                    40000, 53, TcpFlags::kPsh | TcpFlags::kAck, 1, 1,
                                    make_dns_query("www.blocked.example").serialize_tcp());
  censor::Verdict v = dev.inspect(pkt, 0);
  ASSERT_EQ(v.inject_to_client.size(), 1u);
  DnsMessage forged = DnsMessage::parse_tcp(v.inject_to_client[0].payload);
  EXPECT_EQ(forged.rcode, DnsRcode::kNxDomain);
}

TEST(DnsResolver, AnswersFromZone) {
  sim::EndpointProfile p;
  p.hosted_domains = {"resolver.example"};
  p.is_dns_resolver = true;
  p.dns_zone = {{"www.known.org", Ipv4Address(192, 0, 2, 10)}};
  sim::EndpointHost host(p);

  sim::AppReply r = host.handle_payload(make_dns_query("WWW.KNOWN.ORG").serialize_tcp());
  ASSERT_EQ(r.kind, sim::AppReply::Kind::kData);
  DnsMessage answer = DnsMessage::parse_tcp(r.data);
  ASSERT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(answer.answers[0].address, Ipv4Address(192, 0, 2, 10));
}

TEST(DnsResolver, PublicResolverBehaviourIsDeterministic) {
  sim::EndpointProfile p;
  p.hosted_domains = {"resolver.example"};
  p.is_dns_resolver = true;
  sim::EndpointHost host(p);
  auto resolve = [&](const std::string& name) {
    sim::AppReply r = host.handle_payload(make_dns_query(name).serialize_tcp());
    return DnsMessage::parse_tcp(r.data).answers.at(0).address;
  };
  EXPECT_EQ(resolve("anything.example"), resolve("anything.example"));
  EXPECT_EQ(resolve("anything.example"), resolve("ANYTHING.example"));
  EXPECT_NE(resolve("a.example"), resolve("b.example"));
}

TEST(DnsResolver, NonResolverTreatsDnsAsHttpGarbage) {
  sim::EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  sim::EndpointHost host(p);
  sim::AppReply r = host.handle_payload(make_dns_query("x.org").serialize_tcp());
  // A web server answers binary junk with a 400, not a DNS message.
  EXPECT_EQ(r.kind, sim::AppReply::Kind::kData);
  EXPECT_THROW(DnsMessage::parse_tcp(r.data), ParseError);
}

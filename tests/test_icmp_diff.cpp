#include <gtest/gtest.h>

#include "centrace/icmp_diff.hpp"
#include "net/http.hpp"
#include "net/icmp.hpp"

using namespace cen;
using namespace cen::trace;

namespace {
net::Packet probe() {
  return net::make_tcp_packet(net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 9, 1),
                              41000, 80, net::TcpFlags::kPsh | net::TcpFlags::kAck, 500,
                              900, net::HttpRequest::get("www.x.com").serialize_bytes(), 8);
}
}  // namespace

TEST(IcmpDiff, Rfc792QuoteDetected) {
  net::Packet sent = probe();
  net::Packet in_flight = sent;
  in_flight.ip.ttl = 0;
  net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
      net::Ipv4Address(10, 0, 1, 1), in_flight.serialize(), net::QuotePolicy::kRfc792);
  QuoteDiff d = diff_quote(sent.headers(), icmp.quoted, net::Ipv4Address(10, 0, 1, 1));
  EXPECT_TRUE(d.parse_ok);
  EXPECT_TRUE(d.rfc792_minimal);
  EXPECT_FALSE(d.full_tcp_quoted);
  EXPECT_TRUE(d.ports_match);
  EXPECT_FALSE(d.tos_changed);
  EXPECT_EQ(d.quoted_ttl, 0);
}

TEST(IcmpDiff, Rfc1812FullQuoteDetected) {
  net::Packet sent = probe();
  net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
      net::Ipv4Address(10, 0, 1, 1), sent.serialize(), net::QuotePolicy::kRfc1812Full);
  QuoteDiff d = diff_quote(sent.headers(), icmp.quoted, net::Ipv4Address(10, 0, 1, 1));
  EXPECT_TRUE(d.parse_ok);
  EXPECT_FALSE(d.rfc792_minimal);
  EXPECT_TRUE(d.full_tcp_quoted);
  EXPECT_GT(d.quoted_payload_bytes, 0u);
}

TEST(IcmpDiff, TosRewriteDetected) {
  net::Packet sent = probe();
  net::Packet in_flight = sent;
  in_flight.ip.tos = 0x60;  // rewritten by an upstream hop
  net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
      net::Ipv4Address(10, 0, 2, 1), in_flight.serialize(), net::QuotePolicy::kRfc792);
  QuoteDiff d = diff_quote(sent.headers(), icmp.quoted, net::Ipv4Address(10, 0, 2, 1));
  EXPECT_TRUE(d.tos_changed);
  EXPECT_EQ(d.quoted_tos, 0x60);
  EXPECT_FALSE(d.ip_flags_changed);
}

TEST(IcmpDiff, FlagRewriteDetected) {
  net::Packet sent = probe();
  net::Packet in_flight = sent;
  in_flight.ip.flags = 0;  // DF cleared in flight
  net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
      net::Ipv4Address(10, 0, 2, 1), in_flight.serialize(), net::QuotePolicy::kRfc792);
  QuoteDiff d = diff_quote(sent.headers(), icmp.quoted, net::Ipv4Address(10, 0, 2, 1));
  EXPECT_TRUE(d.ip_flags_changed);
}

TEST(IcmpDiff, ForeignQuoteFlagged) {
  net::Packet sent = probe();
  net::Packet other = sent;
  other.tcp.src_port = 55555;  // a quote for someone else's probe
  net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
      net::Ipv4Address(10, 0, 2, 1), other.serialize(), net::QuotePolicy::kRfc792);
  QuoteDiff d = diff_quote(sent.headers(), icmp.quoted, net::Ipv4Address(10, 0, 2, 1));
  EXPECT_FALSE(d.ports_match);
}

TEST(IcmpDiff, GarbageQuoteNotParsed) {
  QuoteDiff d = diff_quote(probe().headers(), Bytes{0x01, 0x02}, net::Ipv4Address(1, 1, 1, 1));
  EXPECT_FALSE(d.parse_ok);
}

// Middleboxes and rate-limited routers are known to clip quotes at odd
// offsets; the differ has to degrade field-by-field rather than all-or-nothing.

TEST(IcmpDiff, TruncatedMidIpHeaderNotParsed) {
  Bytes full = probe().serialize();
  Bytes cut(full.begin(), full.begin() + 12);  // cut inside the IP header
  QuoteDiff d = diff_quote(probe().headers(), cut, net::Ipv4Address(10, 0, 3, 1));
  EXPECT_FALSE(d.parse_ok);
  EXPECT_TRUE(d.ports_match);  // stays at its benefit-of-the-doubt default
}

TEST(IcmpDiff, IpHeaderOnlyQuoteParsesWithoutPorts) {
  net::Packet sent = probe();
  Bytes full = sent.serialize();
  Bytes cut(full.begin(), full.begin() + 20);  // IP header, zero transport bytes
  QuoteDiff d = diff_quote(sent.headers(), cut, net::Ipv4Address(10, 0, 3, 1));
  EXPECT_TRUE(d.parse_ok);
  EXPECT_TRUE(d.rfc792_minimal);
  EXPECT_FALSE(d.full_tcp_quoted);
  EXPECT_FALSE(d.ports_match);  // no transport bytes survived the clip
  EXPECT_FALSE(d.tos_changed);
}

TEST(IcmpDiff, TruncatedMidTcpHeaderStillMatchesPorts) {
  net::Packet sent = probe();
  Bytes full = sent.serialize();
  Bytes cut(full.begin(), full.begin() + 32);  // ports + seq + ack, no flags
  QuoteDiff d = diff_quote(sent.headers(), cut, net::Ipv4Address(10, 0, 3, 1));
  EXPECT_TRUE(d.parse_ok);
  EXPECT_FALSE(d.rfc792_minimal);  // longer than the RFC 792 minimum...
  EXPECT_FALSE(d.full_tcp_quoted);  // ...but short of a full TCP header
  EXPECT_TRUE(d.ports_match);
  EXPECT_EQ(d.quoted_payload_bytes, 0u);
}

TEST(IcmpDiff, TruncatedAfterTcpHeaderDropsPayloadOnly) {
  net::Packet sent = probe();
  Bytes full = sent.serialize();
  Bytes cut(full.begin(), full.begin() + 40);  // full headers, payload clipped
  QuoteDiff d = diff_quote(sent.headers(), cut, net::Ipv4Address(10, 0, 3, 1));
  EXPECT_TRUE(d.parse_ok);
  EXPECT_TRUE(d.full_tcp_quoted);
  EXPECT_TRUE(d.ports_match);
  EXPECT_EQ(d.quoted_payload_bytes, 0u);
}

#include <gtest/gtest.h>

#include <cstdio>

#include "censor/device.hpp"
#include "net/http.hpp"
#include "net/pcap.hpp"
#include "netsim/engine.hpp"

using namespace cen;
using namespace cen::net;

TEST(Pcap, EmptyCaptureIsJustHeader) {
  PcapWriter w;
  Bytes file = w.serialize();
  EXPECT_EQ(file.size(), 24u);
  EXPECT_TRUE(PcapReader::parse(file).empty());
}

TEST(Pcap, RoundTrip) {
  PcapWriter w;
  Packet p = make_tcp_packet(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 9, 1), 40000,
                             80, TcpFlags::kSyn, 100, 0, {});
  w.add(1234, p.serialize());
  w.add(5678, Bytes{0x45, 0x00});
  std::vector<CapturedPacket> packets = PcapReader::parse(w.serialize());
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].timestamp_ms, 1234u);
  EXPECT_EQ(packets[0].data, p.serialize());
  EXPECT_EQ(packets[1].timestamp_ms, 5678u);
}

TEST(Pcap, TimestampSplitAcrossSeconds) {
  PcapWriter w;
  w.add(65'123, Bytes{1});  // 65.123 s
  std::vector<CapturedPacket> packets = PcapReader::parse(w.serialize());
  EXPECT_EQ(packets[0].timestamp_ms, 65'123u);
}

TEST(Pcap, ParseRejectsGarbage) {
  EXPECT_THROW(PcapReader::parse(Bytes{1, 2, 3, 4}), ParseError);
  PcapWriter w;
  Bytes file = w.serialize();
  file[0] ^= 0xff;  // corrupt magic
  EXPECT_THROW(PcapReader::parse(file), ParseError);
}

TEST(Pcap, WriteFile) {
  PcapWriter w;
  w.add(1, Bytes{0x45});
  std::string path = "/tmp/cendevice_test_capture.pcap";
  ASSERT_TRUE(w.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  Bytes data(64, 0);
  std::size_t n = std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  std::remove(path.c_str());
  data.resize(n);
  EXPECT_EQ(PcapReader::parse(data).size(), 1u);
}

TEST(Pcap, NetworkCaptureRecordsBothDirections) {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("c", Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", Ipv4Address(10, 0, 1, 1));
  sim::NodeId server = topo.add_node("s", Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, server);
  sim::Network net(sim::Topology(topo.build()), geo::IpMetadataDb{});
  sim::EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  net.add_endpoint(server, p);

  PcapWriter capture;
  net.set_capture(&capture);
  sim::Connection conn = net.open_connection(client, Ipv4Address(10, 0, 9, 1));
  ASSERT_EQ(conn.connect(), sim::ConnectResult::kEstablished);
  conn.send(HttpRequest::get("www.example.org").serialize_bytes(), 64);
  net.set_capture(nullptr);

  // At least: outbound GET + inbound 200 (SYN handshake is engine-internal;
  // the data exchange must be visible in both directions).
  ASSERT_GE(capture.size(), 2u);
  bool saw_request = false, saw_response = false;
  for (const CapturedPacket& cp : capture.packets()) {
    Packet parsed = Packet::parse(cp.data);
    std::string payload = to_string(parsed.payload);
    if (payload.find("GET /") != std::string::npos) saw_request = true;
    if (payload.find("HTTP/1.1 200") != std::string::npos) saw_response = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_response);
}

TEST(Pcap, NetworkCaptureRecordsIcmp) {
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("c", Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", Ipv4Address(10, 0, 1, 1));
  sim::NodeId server = topo.add_node("s", Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, server);
  sim::Network net(sim::Topology(topo.build()), geo::IpMetadataDb{});
  sim::EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  net.add_endpoint(server, p);

  PcapWriter capture;
  net.set_capture(&capture);
  sim::Connection conn = net.open_connection(client, Ipv4Address(10, 0, 9, 1));
  ASSERT_EQ(conn.connect(), sim::ConnectResult::kEstablished);
  conn.send(HttpRequest::get("www.example.org").serialize_bytes(), 1);  // expire at r1
  net.set_capture(nullptr);

  bool saw_icmp = false;
  for (const CapturedPacket& cp : capture.packets()) {
    ByteReader r(cp.data);
    Ipv4Header ip = Ipv4Header::parse(r);
    if (ip.protocol == IpProto::kIcmp) {
      EXPECT_EQ(ip.src, Ipv4Address(10, 0, 1, 1));
      // The quoted probe is recoverable from the capture.
      IcmpTimeExceeded icmp = IcmpTimeExceeded::parse(ip.src, r.rest());
      bool complete = false;
      Packet quoted = Packet::parse_quoted(icmp.quoted, complete);
      EXPECT_EQ(quoted.ip.dst, Ipv4Address(10, 0, 9, 1));
      saw_icmp = true;
    }
  }
  EXPECT_TRUE(saw_icmp);
}

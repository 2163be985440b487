// Example: the DNS protocol extension plus evidence capture — locate a DNS
// sinkhole injector, write the raw packet capture to a pcap file, and emit
// the machine-readable JSON report.
#include <cstdio>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "net/dns.hpp"
#include "net/pcap.hpp"
#include "report/json_report.hpp"

using namespace cen;

int main() {
  // client - r1 - r2 - r3 - resolver, with a national DNS injector on the
  // link into r2 forging sinkhole answers for blocked.example queries.
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
  sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
  sim::NodeId r3 = topo.add_node("r3", net::Ipv4Address(10, 0, 3, 1));
  sim::NodeId resolver = topo.add_node("resolver", net::Ipv4Address(10, 0, 9, 53));
  topo.add_link(client, r1);
  topo.add_link(r1, r2);
  topo.add_link(r2, r3);
  topo.add_link(r3, resolver);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "NATIONAL-ISP", "XX"});
  sim::Network net(sim::Topology(topo.build()), std::move(db));
  sim::EndpointProfile profile;
  profile.hosted_domains = {"resolver.example"};
  profile.is_dns_resolver = true;
  net.add_endpoint(resolver, profile);

  censor::DeviceConfig cfg;
  cfg.id = "dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  net.attach_device(r2, std::make_shared<censor::Device>(cfg));

  // Capture everything the client sends/receives during the measurement.
  net::PcapWriter capture;
  net.set_capture(&capture);

  trace::CenTraceOptions opts;
  opts.repetitions = 5;
  opts.protocol = trace::ProbeProtocol::kDns;
  trace::CenTrace tracer(net, client, opts);
  trace::CenTraceReport report = tracer.measure(net::Ipv4Address(10, 0, 9, 53),
                                                "www.blocked.example", "www.benign.example");
  net.set_capture(nullptr);

  std::printf("blocked:        %s (%s)\n", report.blocked ? "yes" : "no",
              std::string(blocking_type_name(report.blocking_type)).c_str());
  std::printf("injector hop:   %d (%s)\n", report.blocking_hop_ttl,
              report.blocking_hop_ip ? report.blocking_hop_ip->str().c_str() : "?");

  // Pull the forged answer out of the capture to show the evidence trail.
  for (const net::CapturedPacket& cp : capture.packets()) {
    net::Packet pkt;
    try {
      pkt = net::Packet::parse(cp.data);
    } catch (const ParseError&) {
      continue;  // ICMP record
    }
    if (pkt.payload.empty() || !net::looks_like_tcp_dns(pkt.payload)) continue;
    net::DnsMessage msg = net::DnsMessage::parse_tcp(pkt.payload);
    if (msg.is_response && !msg.answers.empty() &&
        censor::match_dns_sinkhole(msg.answers[0].address)) {
      std::printf("forged answer:  %s -> %s  [known sinkhole]\n",
                  msg.questions[0].qname.c_str(), msg.answers[0].address.str().c_str());
      break;
    }
  }

  const char* pcap_path = "/tmp/cendevice_dns_example.pcap";
  if (capture.write_file(pcap_path)) {
    std::printf("capture:        %zu packets -> %s (open with tcpdump/wireshark)\n",
                capture.size(), pcap_path);
  }
  std::printf("\nJSON report:\n%s\n", report::to_json(report).c_str());
  return 0;
}

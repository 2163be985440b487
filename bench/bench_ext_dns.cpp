// Extension bench (§8 future work): CenTrace over DNS. Demonstrates the
// protocol extension the paper anticipates — locating DNS injectors with
// the same TTL-limited methodology, including sinkhole-answer and
// NXDOMAIN-forging devices.
#include <memory>

#include "bench_common.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "net/dns.hpp"

using namespace bench;

int main() {
  header("Extension: CenTrace over DNS (paper §8 future work)");

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
  cfg.id = "national-dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  net.attach_device(r2, std::make_shared<censor::Device>(cfg));

  trace::CenTraceOptions opts;
  opts.repetitions = 5;
  opts.protocol = trace::ProbeProtocol::kDns;
  trace::CenTrace tracer(net, client, opts);

  for (const char* domain : {"www.benign.example", "www.blocked.example"}) {
    trace::CenTraceReport r =
        tracer.measure(net::Ipv4Address(10, 0, 9, 53), domain, "www.control.example");
    std::printf("\nquery: %s\n", domain);
    std::printf("  blocked: %s", r.blocked ? "yes" : "no");
    if (r.blocked) {
      std::printf(" — injected answer at hop %d (%s, %s)", r.blocking_hop_ttl,
                  r.blocking_hop_ip ? r.blocking_hop_ip->str().c_str() : "?",
                  r.blocking_as ? r.blocking_as->name.c_str() : "?");
    }
    std::printf("\n");
    for (const trace::HopObservation& h : r.test_traces[0].hops) {
      std::printf("  TTL %2d -> %-7s", h.ttl,
                  std::string(probe_response_name(h.response)).c_str());
      if (h.tcp_packet && !h.tcp_packet->payload.empty() &&
          net::looks_like_tcp_dns(h.tcp_packet->payload)) {
        net::DnsMessage m = net::DnsMessage::parse_tcp(h.tcp_packet->payload);
        if (!m.answers.empty()) {
          std::printf("  A %s%s", m.answers[0].address.str().c_str(),
                      censor::match_dns_sinkhole(m.answers[0].address)
                          ? "  [known sinkhole]"
                          : "");
        }
      }
      std::printf("\n");
    }
  }
  // The UDP variant: an on-path injector races the resolver. The client
  // receives the forged answer first AND the genuine one after it — the
  // classic national-DNS-injection signature that DNS-over-TCP can't show.
  header("DNS over UDP: the on-path injection race");
  {
    sim::CompactTopologyBuilder topo2;
    sim::NodeId c2 = topo2.add_node("client", net::Ipv4Address(10, 1, 0, 1));
    sim::NodeId ra = topo2.add_node("ra", net::Ipv4Address(10, 1, 1, 1));
    sim::NodeId rb = topo2.add_node("rb", net::Ipv4Address(10, 1, 2, 1));
    sim::NodeId res2 = topo2.add_node("resolver", net::Ipv4Address(10, 1, 9, 53));
    topo2.add_link(c2, ra);
    topo2.add_link(ra, rb);
    topo2.add_link(rb, res2);
    geo::IpMetadataDb db2;
    db2.add_route(net::Ipv4Address(10, 1, 0, 0), 16, {64513, "UDP-ISP", "XX"});
    sim::Network net2(sim::Topology(topo2.build()), std::move(db2));
    sim::EndpointProfile rp;
    rp.hosted_domains = {"resolver.example"};
    rp.is_dns_resolver = true;
    net2.add_endpoint(res2, rp);
    censor::DeviceConfig tap;
    tap.id = "dns-udp-tap";
    tap.on_path = true;
    tap.action = censor::BlockAction::kBlockpage;
    tap.dns_rules.add("blocked.example");
    tap.dns_sinkhole = censor::dns_sinkhole_address();
    net2.attach_device(rb, std::make_shared<censor::Device>(tap));

    std::vector<sim::Event> events = net2.send_udp(
        c2, net::Ipv4Address(10, 1, 9, 53), 53,
        net::make_dns_query("www.blocked.example").serialize(), 64);
    std::printf("\nquery www.blocked.example -> %zu answers received:\n", events.size());
    for (const sim::Event& ev : events) {
      const auto* udp = std::get_if<sim::UdpEvent>(&ev);
      if (udp == nullptr) continue;
      net::DnsMessage m = net::DnsMessage::parse(udp->datagram.payload);
      if (!m.answers.empty()) {
        std::printf("  A %-15s %s\n", m.answers[0].address.str().c_str(),
                    censor::match_dns_sinkhole(m.answers[0].address)
                        ? "[forged sinkhole — arrives first]"
                        : "[genuine resolver answer — too late]");
      }
    }
  }

  std::printf("\nThe same TTL-limited machinery that locates HTTP/TLS censors\n");
  std::printf("pinpoints the DNS injector: the forged sinkhole answer appears\n");
  std::printf("exactly from the device's hop, benign names resolve end to end,\n");
  std::printf("and over UDP the on-path race (forged + genuine answers) is\n");
  std::printf("directly observable.\n");
  return 0;
}

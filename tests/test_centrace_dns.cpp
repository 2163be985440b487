// End-to-end CenTrace over DNS (the paper's §4/§8 protocol extension):
// locate a DNS-injecting device on the path to a recursive resolver.
#include <gtest/gtest.h>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"

using namespace cen;
using namespace cen::trace;

namespace {

struct DnsNet {
  DnsNet() {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    for (int i = 0; i < 3; ++i) {
      routers[i] = topo.add_node("r" + std::to_string(i + 1),
                                 net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
    }
    resolver = topo.add_node("resolver", net::Ipv4Address(10, 0, 9, 53));
    topo.add_link(client, routers[0]);
    topo.add_link(routers[0], routers[1]);
    topo.add_link(routers[1], routers[2]);
    topo.add_link(routers[2], resolver);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "DNS-AS", "XX"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"resolver.example"};
    profile.is_dns_resolver = true;
    net->add_endpoint(resolver, profile);
  }

  CenTraceReport measure(const std::string& test_domain) {
    CenTraceOptions opts;
    opts.repetitions = 3;
    opts.protocol = ProbeProtocol::kDns;
    CenTrace tracer(*net, client, opts);
    return tracer.measure(net::Ipv4Address(10, 0, 9, 53), test_domain,
                          "www.example.org");
  }

  sim::NodeId client, resolver;
  sim::NodeId routers[3];
  std::unique_ptr<sim::Network> net;
};

}  // namespace

TEST(CenTraceDns, CleanPathResolves) {
  DnsNet dn;
  CenTraceReport r = dn.measure("www.uncensored.example");
  EXPECT_FALSE(r.blocked);
  EXPECT_EQ(r.protocol, ProbeProtocol::kDns);
  EXPECT_EQ(r.endpoint_hop_distance, 4);
}

TEST(CenTraceDns, SinkholeInjectorLocated) {
  DnsNet dn;
  censor::DeviceConfig cfg;
  cfg.id = "dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  dn.net->attach_device(dn.routers[1], std::make_shared<censor::Device>(cfg));

  CenTraceReport r = dn.measure("www.blocked.example");
  EXPECT_TRUE(r.blocked);
  // The spoofed sinkhole answer matches the injected-response fingerprints,
  // classified in the same bucket as identifiable blockpages.
  EXPECT_EQ(r.blocking_type, BlockingType::kHttpBlockpage);
  EXPECT_EQ(r.blocking_hop_ttl, 2);
  ASSERT_TRUE(r.blocking_hop_ip);
  EXPECT_EQ(*r.blocking_hop_ip, net::Ipv4Address(10, 0, 2, 1));
  EXPECT_EQ(r.placement, DevicePlacement::kInPath);
}

TEST(CenTraceDns, NxDomainInjectorDetected) {
  DnsNet dn;
  censor::DeviceConfig cfg;
  cfg.id = "dns-nx";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  dn.net->attach_device(dn.routers[2], std::make_shared<censor::Device>(cfg));

  CenTraceReport r = dn.measure("www.blocked.example");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_hop_ttl, 3);
}

TEST(CenTraceDns, DroppingDnsCensor) {
  DnsNet dn;
  censor::DeviceConfig cfg;
  cfg.id = "dns-dropper";
  cfg.action = censor::BlockAction::kDrop;
  cfg.dns_rules.add("blocked.example");
  dn.net->attach_device(dn.routers[0], std::make_shared<censor::Device>(cfg));

  CenTraceReport r = dn.measure("www.blocked.example");
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.blocking_type, BlockingType::kTimeout);
  EXPECT_EQ(r.blocking_hop_ttl, 1);
}

TEST(CenTraceDns, HttpDeviceIgnoresDnsProbes) {
  DnsNet dn;
  censor::DeviceConfig cfg;
  cfg.id = "http-only";
  cfg.action = censor::BlockAction::kDrop;
  cfg.http_rules.add("blocked.example");  // no dns_rules
  dn.net->attach_device(dn.routers[1], std::make_shared<censor::Device>(cfg));

  CenTraceReport r = dn.measure("www.blocked.example");
  EXPECT_FALSE(r.blocked);  // DNS traffic sails past an HTTP-only filter
}

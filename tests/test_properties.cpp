// Cross-module property tests: invariants that must hold across the whole
// quirk space, strategy space, and randomized topologies.
#include <gtest/gtest.h>

#include "cenfuzz/strategies.hpp"
#include "censor/dpi.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/rng.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"

using namespace cen;

namespace {

/// Every quirk combination the configuration space allows.
std::vector<censor::HttpQuirks> all_http_quirks() {
  std::vector<censor::HttpQuirks> out;
  using censor::HostWordCheck;
  using censor::VersionCheck;
  for (VersionCheck vc : {VersionCheck::kNone, VersionCheck::kPrefixHttp,
                          VersionCheck::kValidOnly}) {
    for (HostWordCheck hw : {HostWordCheck::kExactCaseInsensitive,
                             HostWordCheck::kExactCaseSensitive,
                             HostWordCheck::kContainsHost}) {
      for (bool crlf : {false, true}) {
        for (bool mci : {false, true}) {
          censor::HttpQuirks q;
          q.version_check = vc;
          q.host_word_check = hw;
          q.requires_crlf = crlf;
          q.method_case_insensitive = mci;
          out.push_back(q);
        }
      }
    }
  }
  return out;
}

}  // namespace

// Property: no fuzz probe ever crashes any DPI configuration, and the
// result is deterministic.
TEST(Properties, DpiTotalOverStrategySpaceAndQuirkSpace) {
  std::vector<censor::HttpQuirks> quirks = all_http_quirks();
  censor::TlsQuirks tls_lenient;
  censor::TlsQuirks tls_strict;
  tls_strict.parses_versions = {net::TlsVersion::kTls12};
  tls_strict.blind_cipher_suites = {0x0005};
  tls_strict.breaks_on_padding_extension = true;

  std::size_t evaluations = 0;
  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    for (const fuzz::FuzzProbe& p : fuzz::probes_for_strategy(info.name, "www.example.com")) {
      if (p.https) {
        for (const censor::TlsQuirks* q : {&tls_lenient, &tls_strict}) {
          auto first = censor::dpi_parse_sni(p.payload, *q);
          auto second = censor::dpi_parse_sni(p.payload, *q);
          EXPECT_EQ(first, second);
          ++evaluations;
        }
      } else {
        std::string raw = to_string(p.payload);
        for (const censor::HttpQuirks& q : quirks) {
          auto first = censor::dpi_parse_http(raw, q);
          auto second = censor::dpi_parse_http(raw, q);
          EXPECT_EQ(first.has_value(), second.has_value());
          if (first) {
            EXPECT_EQ(first->host, second->host);
          }
          ++evaluations;
        }
      }
    }
  }
  EXPECT_GT(evaluations, 10000u);
}

// Property: when a strict DPI engages on a probe, a lenient one must too
// (quirk relaxation can only widen the set of inspected requests), for
// the axes where "lenient" is a strict superset.
TEST(Properties, QuirkRelaxationIsMonotone) {
  censor::HttpQuirks strict;
  strict.version_check = censor::VersionCheck::kValidOnly;
  strict.requires_crlf = true;
  strict.host_word_check = censor::HostWordCheck::kExactCaseSensitive;
  strict.method_case_insensitive = false;
  censor::HttpQuirks lenient;
  lenient.version_check = censor::VersionCheck::kNone;
  lenient.requires_crlf = false;
  lenient.host_word_check = censor::HostWordCheck::kContainsHost;
  lenient.method_case_insensitive = true;

  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    if (info.https) continue;
    for (const fuzz::FuzzProbe& p : fuzz::probes_for_strategy(info.name, "www.example.com")) {
      std::string raw = to_string(p.payload);
      if (censor::dpi_parse_http(raw, strict)) {
        EXPECT_TRUE(censor::dpi_parse_http(raw, lenient))
            << info.name << " / " << p.permutation;
      }
    }
  }
}

// Property: a device's stateless trigger oracle is consistent with the
// stateful inspect() verdict on a fresh device.
TEST(Properties, TriggerOracleMatchesInspect) {
  for (const std::string& vendor : censor::known_vendors()) {
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "prop-" + vendor);
    cfg.http_rules.add("blocked.example");
    cfg.sni_rules.add("blocked.example");
    for (const char* domain : {"www.blocked.example", "www.benign.example"}) {
      for (bool https : {false, true}) {
        censor::Device dev(cfg);  // fresh: no residual state
        Bytes payload = https ? net::ClientHello::make(domain).serialize()
                              : net::HttpRequest::get(domain).serialize_bytes();
        net::Packet pkt = net::make_tcp_packet(
            net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 9, 1), 40000,
            https ? 443 : 80, net::TcpFlags::kPsh | net::TcpFlags::kAck, 1, 1, payload);
        EXPECT_EQ(dev.inspect(pkt, 0).triggered, dev.payload_triggers(pkt.payload))
            << vendor << " " << domain << " https=" << https;
      }
    }
  }
}

// Property: CenTrace invariants on randomized line topologies with a
// randomly placed device and random action: if blocked, the corrected
// blocking hop is within the path; the control path covers the endpoint.
TEST(Properties, CenTraceInvariantsOnRandomTopologies) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    int n_routers = static_cast<int>(rng.range(3, 9));
    int device_hop = static_cast<int>(rng.range(1, n_routers));
    censor::BlockAction action = static_cast<censor::BlockAction>(rng.range(0, 3));

    sim::CompactTopologyBuilder topo;
    sim::NodeId client = topo.add_node("c", net::Ipv4Address(10, 9, 0, 1));
    sim::NodeId prev = client;
    std::vector<sim::NodeId> routers;
    for (int i = 0; i < n_routers; ++i) {
      sim::NodeId r = topo.add_node("r", net::Ipv4Address(10, 9, 1, static_cast<uint8_t>(i + 1)));
      topo.add_link(prev, r);
      routers.push_back(r);
      prev = r;
    }
    sim::NodeId server = topo.add_node("s", net::Ipv4Address(10, 9, 9, 1));
    topo.add_link(prev, server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 9, 0, 0), 16, {64512, "PROP", "XX"});
    sim::Network net(sim::Topology(topo.build()), std::move(db), 100 + static_cast<std::uint64_t>(trial));
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net.add_endpoint(server, profile);

    censor::DeviceConfig cfg;
    cfg.id = "prop-device";
    cfg.action = action;
    cfg.blockpage_html = "<html>Web Page Blocked!</html>";
    cfg.http_rules.add("blocked.example");
    net.attach_device(routers[static_cast<std::size_t>(device_hop - 1)],
                      std::make_shared<censor::Device>(cfg));

    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    trace::CenTrace tracer(net, client, opts);
    trace::CenTraceReport r = tracer.measure(net::Ipv4Address(10, 9, 9, 1),
                                             "www.blocked.example", "www.example.org");

    ASSERT_TRUE(r.blocked) << "trial " << trial;
    EXPECT_EQ(r.endpoint_hop_distance, n_routers + 1);
    EXPECT_EQ(r.blocking_hop_ttl, device_hop)
        << "trial " << trial << " action " << static_cast<int>(action);
    ASSERT_TRUE(r.blocking_hop_ip);
    EXPECT_EQ(*r.blocking_hop_ip,
              net::Ipv4Address(10, 9, 1, static_cast<uint8_t>(device_hop)));
    EXPECT_EQ(r.placement, trace::DevicePlacement::kInPath);
  }
}

// Property: strategy expansion for any domain shape keeps Table 2 counts.
class DomainShapes : public ::testing::TestWithParam<const char*> {};

TEST_P(DomainShapes, CatalogueCountsHold) {
  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    EXPECT_EQ(
        static_cast<int>(fuzz::probes_for_strategy(info.name, GetParam()).size()),
        info.permutations)
        << info.name << " for " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DomainShapes,
                         ::testing::Values("example.com", "www.example.com",
                                           "a.b.c.d.example.co.uk", "localhost",
                                           "xn--e1afmkfd.xn--p1ai"));

// Property: TLS probes always serialize to parseable records; the SNI the
// DPI extracts (when it engages) equals the SNI the builder intended.
TEST(Properties, TlsProbesRoundTripThroughLenientDpi) {
  censor::TlsQuirks lenient;
  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    if (!info.https) continue;
    for (const fuzz::FuzzProbe& p : fuzz::probes_for_strategy(info.name, "www.example.com")) {
      net::ClientHello ch = net::ClientHello::parse(p.payload);  // must not throw
      auto dpi_sni = censor::dpi_parse_sni(p.payload, lenient);
      auto real_sni = ch.sni();
      if (dpi_sni) {
        ASSERT_TRUE(real_sni);
        EXPECT_EQ(*dpi_sni, *real_sni);
      }
    }
  }
}

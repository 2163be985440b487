#include <gtest/gtest.h>

#include "cenprobe/fingerprints.hpp"
#include "censor/vendors.hpp"

using namespace cen;
using namespace cen::probe;

namespace {

/// Minimal network with one vendor device and one generic-banner router.
struct ProbeNet {
  ProbeNet() {
    sim::CompactTopologyBuilder topo;
    sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
    sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
    topo.add_link(r1, r2);
    topo.add_service(r1, {22, "ssh", "SSH-2.0-OpenSSH_8.2p1"});
    topo.add_service(r1, {23, "telnet", "login:"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), geo::IpMetadataDb{});

    censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "f1");
    cfg.mgmt_ip = net::Ipv4Address(10, 0, 2, 1);
    net->attach_device(r2, std::make_shared<censor::Device>(cfg));
  }
  std::unique_ptr<sim::Network> net;
};

}  // namespace

TEST(PortScan, FindsOpenVendorPorts) {
  ProbeNet pn;
  PortScanResult scan = scan_ports(*pn.net, net::Ipv4Address(10, 0, 2, 1));
  ASSERT_EQ(scan.open_ports.size(), 2u);  // Fortinet: 22 + 443
  EXPECT_EQ(scan.open_ports[0], 22);
  EXPECT_EQ(scan.open_ports[1], 443);
}

TEST(PortScan, UnknownIpHasNoPorts) {
  ProbeNet pn;
  EXPECT_TRUE(scan_ports(*pn.net, net::Ipv4Address(9, 9, 9, 9)).open_ports.empty());
}

TEST(PortScan, TopPortsListCoversVendorServices) {
  // Every port any vendor profile exposes must be in the scanner's list,
  // or banner grabs would silently miss services.
  for (const std::string& vendor : censor::known_vendors()) {
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "x");
    for (const censor::ServiceBanner& svc : cfg.services) {
      bool covered = std::find(top_ports().begin(), top_ports().end(), svc.port) !=
                     top_ports().end();
      EXPECT_TRUE(covered) << vendor << " port " << svc.port;
    }
  }
}

TEST(BannerGrab, GrabsSupportedProtocolsOnly) {
  ProbeNet pn;
  PortScanResult scan = scan_ports(*pn.net, net::Ipv4Address(10, 0, 2, 1));
  std::vector<BannerGrab> grabs = grab_banners(*pn.net, scan);
  ASSERT_EQ(grabs.size(), 2u);
  EXPECT_EQ(grabs[0].protocol, "https");
  EXPECT_EQ(grabs[1].protocol, "ssh");
}

TEST(BannerGrab, GenericRouterBanners) {
  ProbeNet pn;
  PortScanResult scan = scan_ports(*pn.net, net::Ipv4Address(10, 0, 1, 1));
  std::vector<BannerGrab> grabs = grab_banners(*pn.net, scan);
  ASSERT_EQ(grabs.size(), 2u);
  EXPECT_EQ(grabs[0].banner, "SSH-2.0-OpenSSH_8.2p1");
}

TEST(Fingerprints, MatchVendorBanner) {
  BannerGrab grab;
  grab.protocol = "https";
  grab.banner = "Fortinet FortiGate configuration interface";
  auto vendor = match_fingerprint(grab);
  ASSERT_TRUE(vendor);
  EXPECT_EQ(*vendor, "Fortinet");
}

TEST(Fingerprints, ProtocolScopedPatterns) {
  BannerGrab grab;
  grab.protocol = "ftp";
  grab.banner = "User Access Verification";  // Cisco pattern is telnet-scoped
  EXPECT_FALSE(match_fingerprint(grab));
  grab.protocol = "telnet";
  ASSERT_TRUE(match_fingerprint(grab));
  EXPECT_EQ(*match_fingerprint(grab), "Cisco");
}

TEST(Fingerprints, GenericBannersUnmatched) {
  BannerGrab grab;
  grab.protocol = "ssh";
  grab.banner = "SSH-2.0-OpenSSH_8.2p1";
  EXPECT_FALSE(match_fingerprint(grab));
}

TEST(Fingerprints, CaseInsensitive) {
  BannerGrab grab;
  grab.protocol = "ssh";
  grab.banner = "ssh-2.0-FORTISSH";
  ASSERT_TRUE(match_fingerprint(grab));
  EXPECT_EQ(*match_fingerprint(grab), "Fortinet");
}

TEST(ProbeDevice, FullPipelineLabelsVendor) {
  ProbeNet pn;
  DeviceProbeReport report =
      run(*pn.net, ProbeRunOptions{.ip = net::Ipv4Address(10, 0, 2, 1)});
  EXPECT_TRUE(report.has_any_service());
  EXPECT_EQ(report.banners.size(), 2u);
  ASSERT_TRUE(report.vendor);
  EXPECT_EQ(*report.vendor, "Fortinet");
}

TEST(ProbeDevice, GenericRouterGetsNoLabel) {
  ProbeNet pn;
  DeviceProbeReport report =
      run(*pn.net, ProbeRunOptions{.ip = net::Ipv4Address(10, 0, 1, 1)});
  EXPECT_TRUE(report.has_any_service());
  EXPECT_FALSE(report.vendor);
}

TEST(ProbeDevice, SilentIpHasNothing) {
  ProbeNet pn;
  DeviceProbeReport report =
      run(*pn.net, ProbeRunOptions{.ip = net::Ipv4Address(9, 9, 9, 9)});
  EXPECT_FALSE(report.has_any_service());
  EXPECT_TRUE(report.banners.empty());
  EXPECT_FALSE(report.vendor);
}

TEST(ProbeDevice, EveryCommercialVendorIdentifiable) {
  for (const std::string& vendor : censor::commercial_vendors()) {
    sim::CompactTopologyBuilder topo;
    sim::NodeId r = topo.add_node("r", net::Ipv4Address(10, 0, 1, 1));
    (void)r;
    sim::Network net(sim::Topology(topo.build()), geo::IpMetadataDb{});
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "d");
    cfg.mgmt_ip = net::Ipv4Address(10, 0, 1, 1);
    net.attach_device(0, std::make_shared<censor::Device>(cfg));
    DeviceProbeReport report =
        run(net, ProbeRunOptions{.ip = net::Ipv4Address(10, 0, 1, 1)});
    ASSERT_TRUE(report.vendor) << vendor;
    EXPECT_EQ(*report.vendor, vendor);
  }
}

TEST(StackProbe, VendorStackFingerprintRecovered) {
  ProbeNet pn;
  auto stack = pn.net->probe_stack(net::Ipv4Address(10, 0, 2, 1));
  ASSERT_TRUE(stack);
  censor::StackFingerprint fortinet =
      censor::make_vendor_device("Fortinet", "x").stack;
  EXPECT_EQ(*stack, fortinet);
}

TEST(StackProbe, RouterGetsGenericStack) {
  ProbeNet pn;
  auto stack = pn.net->probe_stack(net::Ipv4Address(10, 0, 1, 1));
  ASSERT_TRUE(stack);
  EXPECT_EQ(stack->synack_ttl, 255);  // generic network-OS stack
}

TEST(StackProbe, NoOpenPortsNoFingerprint) {
  ProbeNet pn;
  EXPECT_FALSE(pn.net->probe_stack(net::Ipv4Address(9, 9, 9, 9)));
}

TEST(StackProbe, VendorsDifferOnStack) {
  // Stack fingerprints must separate at least some vendor pairs — that is
  // what makes them a useful Table 3 feature.
  censor::StackFingerprint cisco = censor::make_vendor_device("Cisco", "x").stack;
  censor::StackFingerprint fortinet = censor::make_vendor_device("Fortinet", "x").stack;
  censor::StackFingerprint kaspersky = censor::make_vendor_device("Kaspersky", "x").stack;
  EXPECT_NE(cisco, fortinet);
  EXPECT_NE(fortinet, kaspersky);
  EXPECT_EQ(cisco.synack_ttl, 255);
  EXPECT_EQ(kaspersky.synack_ttl, 128);  // Windows-derived
}

TEST(StackProbe, ReportCarriesStack) {
  ProbeNet pn;
  DeviceProbeReport report =
      run(*pn.net, ProbeRunOptions{.ip = net::Ipv4Address(10, 0, 2, 1)});
  ASSERT_TRUE(report.stack);
  EXPECT_EQ(report.stack->synack_window, 5840);  // FortiOS
}

// Internal construction kit shared by the country and world scenarios.
// Allocates AS address space, registers geo metadata, stamps router
// profiles with realistic ICMP-behaviour mixes, and wires devices in.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "censor/vendors.hpp"
#include "core/rng.hpp"
#include "geo/asdb.hpp"
#include "netsim/compact.hpp"
#include "netsim/engine.hpp"

namespace cen::scenario {

/// Registrable part of a hostname (last two labels).
std::string registrable(const std::string& domain);

/// Vendor-appropriate rule set over a domain list. Rule granularity is the
/// behavioural axis behind the paper's pad/TLD/subdomain findings (§6.3):
/// exact-hostname vendors (Cisco, Palo Alto, MikroTik) are evaded by any
/// hostname mutation; suffix (leading-wildcard) vendors (Fortinet, Kerio,
/// TSPU-style) still catch subdomains and leading pads; substring vendors
/// (the BY national DPI) catch everything containing the domain.
censor::RuleSet make_rules(const std::string& vendor,
                           const std::vector<std::string>& domains);

class Builder {
 public:
  explicit Builder(std::uint64_t seed) : rng_(seed) {}

  struct AsHandle {
    std::uint32_t asn = 0;
    int ordinal = 0;
    int next_host = 1;
    std::string name;
    std::string country;
  };

  AsHandle make_as(std::uint32_t asn, std::string name, std::string country);
  net::Ipv4Address next_ip(AsHandle& as);

  /// Add a router in `as` drawn by draw_router().
  sim::NodeId router(AsHandle& as, const std::string& name);
  /// Backbone/transit router: randomized like router(), but always answers
  /// TTL exhaustion (national cores and IXes reliably do; the paper found
  /// only one silent-terminating-hop case in 1,430 blocked traces).
  sim::NodeId backbone_router(AsHandle& as, const std::string& name);
  /// Endpoint host node (no ICMP generation is ever needed from it).
  sim::NodeId host(AsHandle& as, const std::string& name);

  /// One org-hosted infrastructure endpoint: a host node linked behind
  /// `attach_to` plus a randomized org web profile — the single
  /// endpoint-placement path shared by the country, world and worldgen
  /// scenario builders (draw order: host, link, then profile).
  struct PlacedEndpoint {
    sim::NodeId node = sim::kInvalidNode;
    sim::EndpointProfile profile;
  };
  PlacedEndpoint org_host(AsHandle& as, sim::NodeId attach_to, const std::string& name,
                          const std::string& org_domain);

  void link(sim::NodeId a, sim::NodeId b) { topo_.add_link(a, b); }

  sim::CompactTopologyBuilder& topology() { return topo_; }
  Rng& rng() { return rng_; }

  /// Finalize into a Network (builder must not be reused afterwards).
  std::unique_ptr<sim::Network> finish(std::uint64_t seed);

 private:
  sim::CompactTopologyBuilder topo_;
  geo::IpMetadataDb geodb_;
  Rng rng_{1};
  int as_ordinal_ = 0;
};

/// A randomized-but-realistic router: ~58% RFC 792 quoting / ~42% RFC
/// 1812 (paper §4.3), ~5% ICMP-silent, ~30% rewrite TOS, ~2% clear DF, and
/// ~40% expose generic management banners. The one draw both the
/// hand-built scenarios and worldgen make per router.
struct DrawnRouter {
  sim::RouterProfile profile;
  std::vector<censor::ServiceBanner> services;
};
DrawnRouter draw_router(Rng& rng);

/// Deploy a device at `at` (in-path on the link into the node, or an
/// on-path tap per the config), assigning the node's IP as management IP
/// for in-path devices. Returns the shared device handle.
std::shared_ptr<censor::Device> deploy(sim::Network& network, sim::NodeId at,
                                       censor::DeviceConfig config);

/// Randomized infrastructure-endpoint web profile (hosting its org domain).
sim::EndpointProfile org_endpoint_profile(const std::string& org_domain, Rng& rng);

}  // namespace cen::scenario

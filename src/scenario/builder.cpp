#include "scenario/builder.hpp"

#include "core/strings.hpp"

namespace cen::scenario {

std::string registrable(const std::string& domain) {
  std::vector<std::string> labels = split(domain, '.');
  if (labels.size() < 2) return domain;
  return labels[labels.size() - 2] + "." + labels.back();
}

censor::RuleSet make_rules(const std::string& vendor,
                           const std::vector<std::string>& domains) {
  censor::RuleSet rules;
  auto style_exact = vendor == "Cisco" || vendor == "PaloAlto" || vendor == "MikroTik";
  auto style_contains = vendor == "BY-DPI";
  auto style_suffix_full = vendor == "Kerio";
  for (const std::string& d : domains) {
    if (style_exact) {
      rules.add(d, censor::MatchStyle::kExact);
    } else if (style_contains) {
      rules.add(registrable(d), censor::MatchStyle::kContains);
    } else if (style_suffix_full) {
      rules.add(d, censor::MatchStyle::kSuffix);
    } else {
      // Fortinet / Kaspersky / TSPU-style / unknown: leading wildcard on
      // the registrable domain (the paper's most common rule form).
      rules.add(registrable(d), censor::MatchStyle::kSuffix);
    }
  }
  // MikroTik address-list matching is case-sensitive in our model; every
  // other vendor matches case-insensitively (§6.3: Capitalize rarely evades).
  rules.set_case_insensitive(vendor != "MikroTik");
  return rules;
}

Builder::AsHandle Builder::make_as(std::uint32_t asn, std::string name,
                                   std::string country) {
  AsHandle as;
  as.asn = asn;
  as.ordinal = as_ordinal_++;
  as.name = std::move(name);
  as.country = std::move(country);
  geo::AsInfo info{asn, as.name, as.country};
  // /20 per AS out of 10.0.0.0/8: ordinal o -> 10.(o>>4).(o&15)*16.0/20.
  net::Ipv4Address base(0x0a000000u | (static_cast<std::uint32_t>(as.ordinal) << 12));
  geodb_.add_route(base, 20, info);
  return as;
}

net::Ipv4Address Builder::next_ip(AsHandle& as) {
  std::uint32_t base = 0x0a000000u | (static_cast<std::uint32_t>(as.ordinal) << 12);
  return net::Ipv4Address(base + static_cast<std::uint32_t>(as.next_host++));
}

DrawnRouter draw_router(Rng& rng) {
  DrawnRouter r;
  r.profile.responds_icmp = !rng.chance(0.05);
  r.profile.quote_policy = rng.chance(0.576) ? net::QuotePolicy::kRfc792
                                             : net::QuotePolicy::kRfc1812Full;
  if (rng.chance(0.30)) {
    r.profile.rewrite_tos = static_cast<std::uint8_t>(rng.range(1, 3) << 5);  // DSCP-ish
  }
  r.profile.clears_df_flag = rng.chance(0.02);
  if (rng.chance(0.40)) {
    r.services.push_back({22, "ssh", "SSH-2.0-OpenSSH_8.2p1"});
    if (rng.chance(0.5)) r.services.push_back({23, "telnet", "login:"});
    if (rng.chance(0.3)) {
      r.services.push_back({161, "snmp", "SNMPv2-MIB::sysDescr Generic Router OS"});
    }
  }
  return r;
}

sim::NodeId Builder::router(AsHandle& as, const std::string& name) {
  DrawnRouter drawn = draw_router(rng_);
  const sim::NodeId id = topo_.add_node(as.name + ":" + name, next_ip(as), drawn.profile);
  for (censor::ServiceBanner& s : drawn.services) topo_.add_service(id, std::move(s));
  return id;
}

sim::NodeId Builder::backbone_router(AsHandle& as, const std::string& name) {
  sim::NodeId id = router(as, name);
  topo_.force_responds_icmp(id);
  return id;
}

sim::NodeId Builder::host(AsHandle& as, const std::string& name) {
  sim::RouterProfile profile;
  profile.responds_icmp = false;  // hosts never forward, so never TTL-expire
  return topo_.add_node(as.name + ":" + name, next_ip(as), profile);
}

Builder::PlacedEndpoint Builder::org_host(AsHandle& as, sim::NodeId attach_to,
                                          const std::string& name,
                                          const std::string& org_domain) {
  PlacedEndpoint placed;
  placed.node = host(as, name);
  link(attach_to, placed.node);
  placed.profile = org_endpoint_profile(org_domain, rng_);
  return placed;
}

std::unique_ptr<sim::Network> Builder::finish(std::uint64_t seed) {
  return std::make_unique<sim::Network>(sim::Topology(topo_.build()), std::move(geodb_),
                                        seed);
}

std::shared_ptr<censor::Device> deploy(sim::Network& network, sim::NodeId at,
                                       censor::DeviceConfig config) {
  if (!config.on_path && !config.mgmt_ip) {
    // In-path devices surface the IP of the router whose link they occupy
    // (what CenTrace can actually recover, §4.1).
    config.mgmt_ip = network.topology().node_ip(at);
  }
  auto device = std::make_shared<censor::Device>(std::move(config));
  network.attach_device(at, device);
  return device;
}

sim::EndpointProfile org_endpoint_profile(const std::string& org_domain, Rng& rng) {
  sim::EndpointProfile profile;
  profile.hosted_domains = {org_domain};
  profile.strict_http = rng.chance(0.3);
  profile.serves_subdomains = rng.chance(0.3);
  profile.reject_unknown_host = rng.chance(0.3);
  if (!profile.reject_unknown_host) profile.default_vhost_for_unknown = rng.chance(0.25);
  profile.reject_unknown_sni = rng.chance(0.3);
  return profile;
}

}  // namespace cen::scenario

#include "scenario/ambig.hpp"

#include "scenario/builder.hpp"

namespace cen::scenario {

const std::vector<AmbigVendor>& ambig_vendors() {
  static const std::vector<AmbigVendor> kVendors = [] {
    std::vector<AmbigVendor> v;
    {
      AmbigVendor a;
      a.name = "QuirkTTL";
      a.reassembly.overlap = censor::OverlapPolicy::kFirstWins;
      a.reassembly.ttl_consistency_check = true;
      v.push_back(std::move(a));
    }
    {
      AmbigVendor a;
      a.name = "QuirkLast";
      a.reassembly.overlap = censor::OverlapPolicy::kLastWins;
      a.reassembly.validates_checksum = false;
      v.push_back(std::move(a));
    }
    {
      AmbigVendor a;
      a.name = "QuirkStrict";
      a.reassembly.overlap = censor::OverlapPolicy::kFirstWins;
      a.reassembly.buffers_out_of_order = false;
      v.push_back(std::move(a));
    }
    return v;
  }();
  return kVendors;
}

AmbigScenario make_ambig(const AmbigScenarioOptions& options, std::uint64_t seed) {
  AmbigScenario out;
  const std::vector<AmbigVendor>& vendors =
      options.vendors.empty() ? ambig_vendors() : options.vendors;
  const int per_vendor = std::max(options.deployments_per_vendor, 1);
  const int total = static_cast<int>(vendors.size()) * per_vendor;

  Builder b(seed);
  Builder::AsHandle meas = b.make_as(64610, "AMBIG-MEAS", "US");
  Builder::AsHandle transit = b.make_as(64611, "AMBIG-TRANSIT", "US");
  Builder::AsHandle hosting = b.make_as(64612, "AMBIG-HOSTING", "US");

  out.client = b.host(meas, "client");
  sim::NodeId acc = b.backbone_router(meas, "acc");
  b.link(out.client, acc);

  // The rule set every deployment shares: suffix match on the registrable
  // test domain, over both HTTP Host and TLS SNI.
  censor::RuleSet rules;
  rules.add(registrable(out.test_domain), censor::MatchStyle::kSuffix);

  std::vector<sim::NodeId> device_nodes;
  std::vector<sim::NodeId> servers;
  for (int i = 0; i < total; ++i) {
    const std::string n = std::to_string(i);
    sim::NodeId ra = b.backbone_router(transit, "rA" + n);
    sim::NodeId rb = b.backbone_router(transit, "rB" + n);
    sim::NodeId server = b.host(hosting, "server" + n);
    b.link(acc, ra);
    b.link(ra, rb);
    b.link(rb, server);
    device_nodes.push_back(rb);
    servers.push_back(server);

    AmbigDeployment d;
    const AmbigVendor& vendor = vendors[static_cast<std::size_t>(i) % vendors.size()];
    d.vendor = vendor.name;
    d.device_id = "ambig-" + vendor.name + "-" + n;
    d.endpoint = b.topology().ip(server);
    out.deployments.push_back(std::move(d));
  }

  out.network = b.finish(seed);

  for (int i = 0; i < total; ++i) {
    sim::EndpointProfile profile;
    profile.hosted_domains = {out.control_domain};
    profile.serves_subdomains = true;
    profile.default_vhost_for_unknown = true;  // padded Host values get data
    out.network->add_endpoint(servers[static_cast<std::size_t>(i)], profile);

    const AmbigVendor& vendor = vendors[static_cast<std::size_t>(i) % vendors.size()];
    censor::DeviceConfig cfg;
    cfg.id = out.deployments[static_cast<std::size_t>(i)].device_id;
    cfg.vendor = vendor.name;
    cfg.on_path = false;  // inline: drops actually remove the packet
    cfg.action = censor::BlockAction::kDrop;
    cfg.residual_block_ms = options.residual_block;
    cfg.http_rules = rules;
    cfg.sni_rules = rules;
    cfg.reassembly = vendor.reassembly;
    // Banners fully dark: no services, no blockpage, nothing for the
    // banner/blockpage pipeline to cluster on.
    cfg.services.clear();
    deploy(*out.network, device_nodes[static_cast<std::size_t>(i)], std::move(cfg));
  }
  return out;
}

}  // namespace cen::scenario

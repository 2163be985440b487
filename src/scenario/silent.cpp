#include "scenario/silent.hpp"

#include <algorithm>

#include "core/rng.hpp"
#include "core/seed_salts.hpp"
#include "scenario/builder.hpp"

namespace cen::scenario {

SilentScenario make_silent(const SilentOptions& options, std::uint64_t seed) {
  SilentScenario out;
  const int nv = std::max(options.vantages, 1);
  const int nk = std::max(options.spines, 1);

  Builder b(seed);
  Builder::AsHandle meas = b.make_as(64600, "SILENT-MEAS", "US");
  Builder::AsHandle transit = b.make_as(64601, "SILENT-TRANSIT", "US");
  Builder::AsHandle hosting = b.make_as(64602, "SILENT-HOSTING", "US");

  std::vector<sim::NodeId> acc;
  for (int i = 0; i < nv; ++i) {
    sim::NodeId v = b.host(meas, "v" + std::to_string(i));
    sim::NodeId a = b.backbone_router(meas, "acc" + std::to_string(i));
    b.link(v, a);
    out.vantages.push_back(v);
    acc.push_back(a);
    out.on_path_routers.push_back(a);
  }

  std::vector<sim::NodeId> spine_a;
  std::vector<sim::NodeId> spine_b;
  for (int k = 0; k < nk; ++k) {
    sim::NodeId sa = b.backbone_router(transit, "s" + std::to_string(k) + "a");
    sim::NodeId sb = b.backbone_router(transit, "s" + std::to_string(k) + "b");
    b.link(sa, sb);
    spine_a.push_back(sa);
    spine_b.push_back(sb);
    out.on_path_routers.push_back(sa);
    out.on_path_routers.push_back(sb);
  }
  sim::NodeId agg = b.backbone_router(transit, "agg");
  out.on_path_routers.push_back(agg);
  for (int k = 0; k < nk; ++k) b.link(spine_b[k], agg);

  // v0 is pinned to the censored spine; every other vantage load-balances
  // over all spines (equal path lengths -> ECMP fan-out).
  b.link(acc[0], spine_a[0]);
  for (int i = 1; i < nv; ++i) {
    for (int k = 0; k < nk; ++k) b.link(acc[i], spine_a[k]);
  }

  sim::NodeId server = b.host(hosting, "server");
  b.link(agg, server);
  out.endpoint = b.topology().ip(server);
  out.censor_node = spine_b[0];
  out.true_link = tomo::LinkId(spine_a[0], spine_b[0]);

  out.network = b.finish(seed);

  sim::EndpointProfile profile;
  profile.hosted_domains = {out.control_domain};
  profile.serves_subdomains = true;
  profile.default_vhost_for_unknown = true;  // unhosted Host values get data
  out.network->add_endpoint(server, std::move(profile));

  censor::DeviceConfig cfg;
  cfg.id = "silent-censor";
  cfg.on_path = false;  // inline, on the link into censor_node
  cfg.action = options.drop_censor ? censor::BlockAction::kDrop
                                   : censor::BlockAction::kRstInject;
  censor::RuleSet rules;
  rules.add(registrable(out.test_domain), censor::MatchStyle::kSuffix);
  cfg.http_rules = rules;
  cfg.sni_rules = rules;
  deploy(*out.network, out.censor_node, std::move(cfg));

  // Seeded blackhole draw, order-stable over on_path_routers.
  sim::FaultPlan plan;
  plan.route_flap_period = options.route_flap_period;
  Rng rng(mix64(seed ^ salts::kSilent));
  for (sim::NodeId node : out.on_path_routers) {
    if (!rng.chance(options.blackhole_probability)) continue;
    plan.node_overrides[node].icmp_blackhole = true;
    out.blackholed.push_back(node);
  }
  out.network->set_fault_plan(std::move(plan));
  return out;
}

std::vector<sim::NodeId> tomography_vantages(const CountryScenario& scenario, int n) {
  std::vector<sim::NodeId> out;
  for (sim::NodeId v : {scenario.remote_client, scenario.incountry_client}) {
    if (v == sim::kInvalidNode) continue;
    if (std::find(out.begin(), out.end(), v) != out.end()) continue;
    if (static_cast<int>(out.size()) >= n) break;
    out.push_back(v);
  }
  return out;
}

}  // namespace cen::scenario

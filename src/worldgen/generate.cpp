#include "worldgen/generate.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "core/seed_salts.hpp"
#include "obs/observer.hpp"
#include "scenario/builder.hpp"
#include "scenario/world.hpp"

namespace cen::worldgen {

namespace {

/// First address of the worldgen allocation plan: 11.0.0.0 upward (the
/// hand-built scenarios live in 10.0.0.0/8, so the pools never collide).
constexpr std::uint32_t kAllocBase = 0x0b000000u;

std::uint32_t next_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint8_t prefix_len_for(std::uint32_t size) {
  std::uint8_t len = 32;
  while (size > 1) {
    size >>= 1;
    --len;
  }
  return len;
}

/// Proportional (weight-share) country assignment: index i of N lands in
/// the regime whose cumulative-weight band contains (i + 0.5) / N.
std::uint16_t country_for(std::uint32_t i, std::uint32_t n,
                          const std::vector<double>& cum_weights, double total) {
  const double target = (static_cast<double>(i) + 0.5) / static_cast<double>(n) * total;
  for (std::size_t j = 0; j < cum_weights.size(); ++j) {
    if (target < cum_weights[j]) return static_cast<std::uint16_t>(j);
  }
  return static_cast<std::uint16_t>(cum_weights.size() - 1);
}

/// Zipf-skewed largest-remainder apportionment of `total` endpoints over
/// `n` stub ASes (exponent `s`). Exact: the shares sum to `total`.
std::vector<std::uint64_t> zipf_apportion(std::uint64_t total, std::uint32_t n, double s) {
  std::vector<std::uint64_t> out(n, 0);
  if (n == 0 || total == 0) return out;
  std::vector<double> w(n);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -s);
    sum += w[i];
  }
  std::vector<std::pair<double, std::uint32_t>> frac(n);
  std::uint64_t assigned = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(total) * w[i] / sum;
    out[i] = static_cast<std::uint64_t>(exact);
    assigned += out[i];
    frac[i] = {exact - static_cast<double>(out[i]), i};
  }
  // Largest fractional part first; ties resolved toward the lower index.
  std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::uint64_t r = 0; r < total - assigned; ++r) {
    out[frac[r % n].second] += 1;
  }
  return out;
}

/// Degree-weighted (degree + 1) draw over AS indices [lo, hi).
std::uint32_t draw_attachment(Rng& rng, const std::vector<std::uint32_t>& degree,
                              std::uint32_t lo, std::uint32_t hi) {
  std::uint64_t total = 0;
  for (std::uint32_t i = lo; i < hi; ++i) total += degree[i] + 1;
  std::uint64_t r = rng.uniform(total);
  for (std::uint32_t i = lo; i < hi; ++i) {
    const std::uint64_t wt = degree[i] + 1;
    if (r < wt) return i;
    r -= wt;
  }
  return hi - 1;
}

void mix_profile(FingerprintBuilder& fp, const sim::EndpointProfile& p) {
  fp.mix(static_cast<std::uint64_t>(p.hosted_domains.size()));
  for (const std::string& d : p.hosted_domains) fp.mix(d);
  fp.mix(p.serves_subdomains);
  fp.mix(p.strict_http);
  fp.mix(p.reject_unknown_host);
  fp.mix(p.default_vhost_for_unknown);
  fp.mix(p.reject_unknown_sni);
}

}  // namespace

std::uint64_t World::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(spec.fingerprint());
  fp.mix(seed);
  fp.mix(topology != nullptr ? topology->fingerprint() : 0);
  fp.mix(static_cast<std::uint64_t>(ases.size()));
  for (const GeneratedAs& a : ases) {
    fp.mix(static_cast<std::uint64_t>(a.asn));
    fp.mix(static_cast<std::uint64_t>(a.tier));
    fp.mix(static_cast<std::uint64_t>(a.country));
    fp.mix(static_cast<std::uint64_t>(a.prefix_base));
    fp.mix(static_cast<std::uint64_t>(a.prefix_len));
    fp.mix(static_cast<std::uint64_t>(a.first_router));
    fp.mix(static_cast<std::uint64_t>(a.router_count));
    fp.mix(a.first_endpoint);
    fp.mix(a.endpoint_count);
  }
  fp.mix(static_cast<std::uint64_t>(endpoint_ips.size()));
  for (std::uint32_t ip : endpoint_ips) fp.mix(static_cast<std::uint64_t>(ip));
  for (sim::NodeId n : endpoint_nodes) fp.mix(static_cast<std::uint64_t>(n));
  for (std::uint32_t a : endpoint_as) fp.mix(static_cast<std::uint64_t>(a));
  for (std::uint16_t t : endpoint_template) fp.mix(static_cast<std::uint64_t>(t));
  fp.mix(static_cast<std::uint64_t>(templates.size()));
  for (const auto& t : templates) mix_profile(fp, *t);
  fp.mix(static_cast<std::uint64_t>(devices.size()));
  for (const DevicePlan& d : devices) {
    fp.mix(static_cast<std::uint64_t>(d.node));
    fp.mix(d.vendor);
    fp.mix(d.on_path);
    fp.mix(static_cast<std::uint64_t>(d.service_mode));
    fp.mix(static_cast<std::uint64_t>(d.as_index));
    fp.mix(static_cast<std::uint64_t>(d.country));
  }
  fp.mix(static_cast<std::uint64_t>(client));
  return fp.digest();
}

std::size_t World::bytes() const {
  std::size_t total = topology != nullptr ? topology->bytes() : 0;
  total += endpoint_ips.capacity() * sizeof(std::uint32_t);
  total += endpoint_nodes.capacity() * sizeof(sim::NodeId);
  total += endpoint_as.capacity() * sizeof(std::uint32_t);
  total += endpoint_template.capacity() * sizeof(std::uint16_t);
  total += ases.capacity() * sizeof(GeneratedAs);
  total += devices.capacity() * sizeof(DevicePlan);
  for (const auto& t : templates) {
    total += sizeof(sim::EndpointProfile);
    for (const std::string& d : t->hosted_domains) total += d.capacity();
  }
  // Two geo routes per AS (asdb registers both sources); route storage
  // is approximated since IpMetadataDb does not expose its internals.
  total += ases.size() * 2 * 96;
  return total;
}

World::Stats World::stats() const {
  Stats s;
  s.nodes = topology != nullptr ? topology->node_count() : 0;
  s.links = topology != nullptr ? topology->link_count() : 0;
  s.endpoints = endpoint_ips.size();
  s.ases = ases.size();
  s.devices = devices.size();
  s.bytes = bytes();
  return s;
}

World generate(const WorldSpec& spec, std::uint64_t seed, obs::Observer* observer) {
  World w;
  w.spec = spec;
  w.seed = seed;
  w.regimes = spec.effective_countries();

  const std::uint32_t nT = spec.transit_ases;
  const std::uint32_t nR = spec.regional_ases;
  const std::uint32_t nS = spec.stub_ases;
  if (nT == 0 || nS == 0) {
    throw std::invalid_argument("worldgen: spec needs >=1 transit and >=1 stub AS");
  }

  // ---- Phase 1: allocation plan (countries, prefixes, populations). ----
  std::vector<double> cum_weights;
  double total_weight = 0.0;
  for (const CountryRegimeSpec& c : w.regimes) {
    total_weight += c.weight;
    cum_weights.push_back(total_weight);
  }

  const std::vector<std::uint64_t> stub_endpoints =
      zipf_apportion(spec.endpoints, nS, spec.endpoint_zipf);

  const std::uint32_t total_as = 1 + nT + nR + nS;
  w.ases.reserve(total_as);
  std::uint32_t cursor = kAllocBase;
  std::uint64_t endpoint_cursor = 0;
  auto plan_as = [&](std::uint32_t asn, AsTier tier, std::uint16_t country,
                     std::uint32_t routers, std::uint64_t endpoints) {
    GeneratedAs a;
    a.asn = asn;
    a.tier = tier;
    a.country = country;
    a.router_count = routers;
    a.first_endpoint = endpoint_cursor;
    a.endpoint_count = endpoints;
    endpoint_cursor += endpoints;
    // Hosts needed: routers + endpoints (+ the client in the meas AS);
    // +2 keeps network/broadcast-style margins, pow2 sizes align cleanly.
    const std::uint64_t needed = routers + endpoints + 2 + (tier == AsTier::kTransit && asn == 64500 ? 1 : 0);
    if (needed > 0x01000000ull) {
      throw std::length_error("worldgen: single AS exceeds /8 address budget");
    }
    const std::uint32_t size = next_pow2(static_cast<std::uint32_t>(std::max<std::uint64_t>(needed, 8)));
    cursor = (cursor + size - 1) & ~(size - 1);  // align to pool size
    if (cursor + size < cursor || cursor + size > 0xe0000000u) {
      throw std::length_error("worldgen: IPv4 allocation plan exhausted");
    }
    a.prefix_base = cursor;
    a.prefix_len = prefix_len_for(size);
    cursor += size;
    w.ases.push_back(a);
  };

  plan_as(64500, AsTier::kTransit, kNoCountry, 1, 0);  // measurement AS
  for (std::uint32_t i = 0; i < nT; ++i) {
    plan_as(3000 + i, AsTier::kTransit,
            country_for(i, nT, cum_weights, total_weight), spec.routers_per_transit, 0);
  }
  for (std::uint32_t i = 0; i < nR; ++i) {
    plan_as(20000 + i, AsTier::kRegional,
            country_for(i, nR, cum_weights, total_weight), spec.routers_per_regional, 0);
  }
  for (std::uint32_t i = 0; i < nS; ++i) {
    plan_as(45000 + i, AsTier::kStub, country_for(i, nS, cum_weights, total_weight),
            spec.routers_per_stub, stub_endpoints[i]);
  }

  // Regime realization: which stub ASes host a device, which vendor, and
  // where in the §5.2 exposure funnel it sits.
  Rng regime_rng(mix64(seed ^ salts::kWorldRegime));
  int dev_counter = 0;
  std::vector<bool> as_has_device(total_as, false);
  for (std::uint32_t idx = 1 + nT + nR; idx < total_as; ++idx) {
    const GeneratedAs& a = w.ases[idx];
    if (a.country == kNoCountry) continue;
    const CountryRegimeSpec& regime = w.regimes[a.country];
    if (!regime.censored || regime.vendors.empty()) continue;
    if (!regime_rng.chance(regime.deploy_coverage)) continue;
    DevicePlan plan;
    plan.vendor = regime.vendors[static_cast<std::size_t>(dev_counter) % regime.vendors.size()];
    plan.on_path = regime_rng.chance(regime.on_path_share);
    // Funnel: on-path taps have no probeable IP; of in-path devices ~1/8
    // expose nothing and ~half only generic banners (mirrors make_world).
    if (plan.on_path) {
      plan.service_mode = 1;
    } else if (dev_counter % 8 == 7) {
      plan.service_mode = 1;
    } else if (dev_counter % 2 == 1) {
      plan.service_mode = 2;
    }
    plan.as_index = idx;
    plan.country = a.country;
    w.devices.push_back(std::move(plan));
    as_has_device[idx] = true;
    ++dev_counter;
  }

  // ---- Phase 2: topology (routers, intra-AS chains, AS graph, hosts). ----
  Rng topo_rng(mix64(seed ^ salts::kWorldTopology));
  sim::CompactTopologyBuilder tb;
  {
    std::uint64_t node_hint = 1;  // client
    std::uint64_t link_hint = 1;
    for (const GeneratedAs& a : w.ases) {
      node_hint += a.router_count + a.endpoint_count;
      link_hint += a.router_count + a.endpoint_count + 2;
    }
    tb.reserve(node_hint, link_hint);
  }

  w.endpoint_ips.reserve(spec.endpoints);
  w.endpoint_nodes.reserve(spec.endpoints);
  w.endpoint_as.reserve(spec.endpoints);

  std::vector<std::uint32_t> as_degree(total_as, 0);
  std::vector<sim::NodeId> as_border(total_as, sim::kInvalidNode);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> as_links;
  as_links.reserve(total_as * 2);

  auto link_ases = [&](std::uint32_t a, std::uint32_t b) {
    as_links.emplace_back(a, b);
    ++as_degree[a];
    ++as_degree[b];
  };

  for (std::uint32_t idx = 0; idx < total_as; ++idx) {
    GeneratedAs& a = w.ases[idx];
    const std::string as_name = "AS" + std::to_string(a.asn);
    std::uint32_t host_cursor = 1;  // .0 is the network address
    sim::NodeId prev = sim::kInvalidNode;
    for (std::uint32_t r = 0; r < a.router_count; ++r) {
      scenario::DrawnRouter drawn = scenario::draw_router(topo_rng);
      const bool is_border = r == 0;
      // Transit cores always answer TTL exhaustion (backbone behaviour);
      // so do borders carrying a deployed device (localizability, §4.1).
      if (a.tier == AsTier::kTransit || (is_border && a.tier == AsTier::kRegional) ||
          (is_border && as_has_device[idx])) {
        drawn.profile.responds_icmp = true;
      }
      sim::NodeId id = tb.add_node(as_name + ":r" + std::to_string(r),
                                   net::Ipv4Address(a.prefix_base + host_cursor++),
                                   drawn.profile);
      for (censor::ServiceBanner& s : drawn.services) tb.add_service(id, std::move(s));
      if (r == 0) {
        a.first_router = id;
        as_border[idx] = id;
      } else {
        tb.add_link(prev, id);
      }
      prev = id;
    }
    if (idx == 0) {
      // Measurement AS also hosts the vantage client.
      sim::RouterProfile host_profile;
      host_profile.responds_icmp = false;
      w.client = tb.add_node(as_name + ":client",
                             net::Ipv4Address(a.prefix_base + host_cursor++), host_profile);
      tb.add_link(as_border[0], w.client);
    }

    // Inter-AS attachment (preferential, degree + 1 weighted).
    if (a.tier == AsTier::kTransit && idx >= 1) {
      const std::uint32_t ti = idx - 1;  // transit ordinal
      if (ti == 0) {
        link_ases(idx, 0);  // first transit carries the measurement AS
      } else {
        const std::uint32_t lo = 1, hi = idx;
        std::uint32_t first = draw_attachment(topo_rng, as_degree, lo, hi);
        link_ases(idx, first);
        if (hi - lo >= 2) {
          std::uint32_t second = draw_attachment(topo_rng, as_degree, lo, hi);
          if (second == first) second = draw_attachment(topo_rng, as_degree, lo, hi);
          if (second != first) link_ases(idx, second);
        }
      }
    } else if (a.tier == AsTier::kRegional) {
      const std::uint32_t lo = 1, hi = idx;  // transits + earlier regionals
      std::uint32_t first = draw_attachment(topo_rng, as_degree, lo, hi);
      link_ases(idx, first);
      if (hi - lo >= 2) {
        std::uint32_t second = draw_attachment(topo_rng, as_degree, lo, hi);
        if (second == first) second = draw_attachment(topo_rng, as_degree, lo, hi);
        if (second != first) link_ases(idx, second);
      }
    } else if (a.tier == AsTier::kStub) {
      // Stubs home at regionals (or transits when the spec has none).
      const std::uint32_t lo = nR > 0 ? 1 + nT : 1;
      const std::uint32_t hi = nR > 0 ? 1 + nT + nR : 1 + nT;
      std::uint32_t first = draw_attachment(topo_rng, as_degree, lo, hi);
      link_ases(idx, first);
      if (hi - lo >= 2 && topo_rng.chance(0.3)) {
        std::uint32_t second = draw_attachment(topo_rng, as_degree, lo, hi);
        if (second != first) link_ases(idx, second);  // multihomed stub
      }
    }

    // Endpoint hosts: sequential IPs after the routers, round-robin
    // attachment across the AS's routers, nameless (the arena stays
    // a few tens of KB at a million hosts).
    for (std::uint64_t e = 0; e < a.endpoint_count; ++e) {
      sim::RouterProfile host_profile;
      host_profile.responds_icmp = false;
      const net::Ipv4Address ip(a.prefix_base + host_cursor++);
      sim::NodeId id = tb.add_node("", ip, host_profile);
      tb.add_link(a.first_router + static_cast<sim::NodeId>(e % a.router_count), id);
      w.endpoint_ips.push_back(ip.value());
      w.endpoint_nodes.push_back(id);
      w.endpoint_as.push_back(idx);
    }

    // Geo metadata: one route per AS pool, named for the world.
    const std::string country_code =
        a.country == kNoCountry ? "ZZ" : w.regimes[a.country].code;
    w.geodb.add_route(net::Ipv4Address(a.prefix_base), a.prefix_len,
                      geo::AsInfo{a.asn, "WG-" + as_name, country_code});
  }

  // Realize the AS graph between border routers.
  for (const auto& [x, y] : as_links) tb.add_link(as_border[x], as_border[y]);

  // Resolve device plans to their border-router nodes (known only now).
  for (DevicePlan& plan : w.devices) plan.node = as_border[plan.as_index];

  w.topology = tb.build();

  // ---- Phase 3: endpoint profile templates. ----
  Rng ep_rng(mix64(seed ^ salts::kWorldEndpoint));
  w.templates.reserve(spec.profile_templates);
  for (std::uint32_t t = 0; t < spec.profile_templates; ++t) {
    sim::EndpointProfile profile = scenario::org_endpoint_profile(
        "tpl" + std::to_string(t) + ".worldgen.example", ep_rng);
    w.templates.push_back(
        std::make_shared<const sim::EndpointProfile>(std::move(profile)));
  }
  w.endpoint_template.reserve(spec.endpoints);
  for (std::uint64_t e = 0; e < spec.endpoints; ++e) {
    w.endpoint_template.push_back(
        static_cast<std::uint16_t>(ep_rng.index(w.templates.size())));
  }

  if (observer != nullptr) {
    const World::Stats st = w.stats();
    auto& m = observer->metrics();
    m.gauge("worldgen.nodes").set_max(static_cast<std::int64_t>(st.nodes));
    m.gauge("worldgen.links").set_max(static_cast<std::int64_t>(st.links));
    m.gauge("worldgen.endpoints").set_max(static_cast<std::int64_t>(st.endpoints));
    m.gauge("worldgen.ases").set_max(static_cast<std::int64_t>(st.ases));
    m.gauge("worldgen.devices").set_max(static_cast<std::int64_t>(st.devices));
    m.gauge("worldgen.bytes").set_max(static_cast<std::int64_t>(st.bytes));
    // Phase spans with item-count durations (run-invariant: identical for
    // every thread count, like the campaign's stage spans).
    SimTime t0 = 0;
    auto phase_span = [&](const char* name, std::size_t items) {
      const SimTime t1 = t0 + static_cast<SimTime>(items);
      observer->tracer().complete(name, "worldgen", t0, t1);
      t0 = t1;
    };
    phase_span("worldgen.plan", st.ases);
    phase_span("worldgen.topology", st.nodes);
    phase_span("worldgen.regimes", st.devices);
    phase_span("worldgen.endpoints", st.endpoints);
  }
  return w;
}

GeneratedScenario instantiate(const World& world, std::int64_t max_endpoints) {
  if (world.topology == nullptr) {
    throw std::invalid_argument("worldgen::instantiate: world has no topology");
  }
  GeneratedScenario s;
  auto network = std::make_unique<sim::Network>(sim::Topology(world.topology), world.geodb,
                                                mix64(world.seed ^ salts::kWorldNetwork));

  const std::uint64_t total = world.endpoint_ips.size();
  const std::uint64_t n =
      max_endpoints < 0
          ? total
          : std::min<std::uint64_t>(total, static_cast<std::uint64_t>(max_endpoints));
  network->add_endpoints(std::span(world.endpoint_nodes).first(n),
                         std::span(world.endpoint_template).first(n), world.templates);
  s.endpoints = std::vector<net::Ipv4Address>(
      world.endpoint_ips.begin(), world.endpoint_ips.begin() + static_cast<std::ptrdiff_t>(n));

  std::vector<std::string> all_domains = world.spec.http_test_domains;
  all_domains.insert(all_domains.end(), world.spec.https_test_domains.begin(),
                     world.spec.https_test_domains.end());
  for (const DevicePlan& plan : world.devices) {
    const GeneratedAs& as = world.ases[plan.as_index];
    censor::DeviceConfig cfg = scenario::world_device_config(
        plan.vendor,
        world.spec.name + "-as" + std::to_string(as.asn) + "-" + plan.vendor);
    cfg.http_rules = scenario::make_rules(plan.vendor, all_domains);
    cfg.sni_rules = scenario::make_rules(plan.vendor, all_domains);
    cfg.on_path = plan.on_path;
    if (plan.service_mode == 1) {
      cfg.services.clear();
    } else if (plan.service_mode == 2) {
      cfg.services = {{22, "ssh", "SSH-2.0-OpenSSH_7.9"}, {23, "telnet", "login:"}};
    }
    std::shared_ptr<censor::Device> dev =
        scenario::deploy(*network, plan.node, std::move(cfg));
    scenario::DeviceTruth truth;
    truth.device_id = dev->config().id;
    truth.vendor = dev->config().vendor;
    truth.on_path = dev->config().on_path;
    truth.asn = as.asn;
    if (dev->config().mgmt_ip) truth.mgmt_ip = *dev->config().mgmt_ip;
    s.devices.push_back(std::move(truth));
  }

  s.network = std::move(network);
  s.client = world.client;
  s.http_test_domains = world.spec.http_test_domains;
  s.https_test_domains = world.spec.https_test_domains;
  s.control_domain = world.spec.control_domain;
  return s;
}

}  // namespace cen::worldgen

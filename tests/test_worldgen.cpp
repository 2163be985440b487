// Worldgen + compact-backend acceptance: the structure-of-arrays topology
// must be measurement-equivalent to the classic pointer-based Topology
// (same fingerprints, same trace/probe reports), its 32-bit id guards
// must trip cleanly, and generate(spec, seed) must be a pure function of
// its arguments — byte-identical worlds, campaigns and fan-outs at every
// thread count (docs/WORLDGEN.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cenprobe/fingerprints.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/rng.hpp"
#include "netsim/compact.hpp"
#include "netsim/engine.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/builder.hpp"
#include "scenario/world.hpp"
#include "worldgen/generate.hpp"
#include "worldgen/spec.hpp"

using namespace cen;

namespace {

/// A classic Topology and a CompactTopology built in lockstep from the
/// same randomized draws: a router chain with extra cross links, random
/// ICMP profiles, sparse services, and a server leaf.
struct TwinTopologies {
  sim::Topology classic;
  std::shared_ptr<const sim::CompactTopology> compact;
  sim::NodeId client = sim::kInvalidNode;
  sim::NodeId server = sim::kInvalidNode;
  sim::NodeId mid_router = sim::kInvalidNode;
  std::vector<sim::NodeId> routers;
};

TwinTopologies make_twins(std::uint64_t seed, int n_routers = 6) {
  TwinTopologies t;
  sim::CompactTopologyBuilder cb;
  Rng rng(seed);

  auto add = [&](const std::string& name, net::Ipv4Address ip,
                 const sim::RouterProfile& profile) {
    sim::NodeId a = t.classic.add_node(name, ip, profile);
    sim::NodeId b = cb.add_node(name, ip, profile);
    EXPECT_EQ(a, b);
    return a;
  };
  auto link = [&](sim::NodeId a, sim::NodeId b) {
    t.classic.add_link(a, b);
    cb.add_link(a, b);
  };

  sim::RouterProfile host;
  host.responds_icmp = false;
  t.client = add("client", net::Ipv4Address(10, 0, 0, 1), host);
  for (int i = 0; i < n_routers; ++i) {
    sim::RouterProfile rp;
    rp.responds_icmp = true;
    rp.quote_policy = rng.chance(0.5) ? net::QuotePolicy::kRfc792
                                      : net::QuotePolicy::kRfc1812Full;
    if (rng.chance(0.3)) rp.rewrite_tos = static_cast<std::uint8_t>(rng.range(1, 3) << 5);
    sim::NodeId r = add("r" + std::to_string(i),
                        net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i + 1), 1), rp);
    if (i == 0) {
      link(t.client, r);
    } else {
      link(t.routers.back(), r);
      if (i > 2 && rng.chance(0.4)) {
        link(t.routers[rng.index(t.routers.size() - 1)], r);
      }
    }
    if (rng.chance(0.3)) {
      censor::ServiceBanner ssh{22, "ssh", "SSH-2.0-OpenSSH_8.2p1"};
      t.classic.node(r).services.push_back(ssh);
      cb.add_service(r, ssh);
    }
    t.routers.push_back(r);
  }
  // The device test attaches here: the server hangs off the last router,
  // so every equal-cost path traverses it regardless of the cross links.
  t.mid_router = t.routers.back();
  t.server = add("server", net::Ipv4Address(10, 0, 99, 1), host);
  link(t.routers.back(), t.server);
  t.compact = cb.build();
  return t;
}

geo::IpMetadataDb twin_geodb() {
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 8, {64512, "TWIN-AS", "XX"});
  return db;
}

sim::EndpointProfile twin_endpoint() {
  sim::EndpointProfile profile;
  profile.hosted_domains = {"www.blockedexample.com"};
  return profile;
}

censor::DeviceConfig twin_device() {
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "twin-dev");
  cfg.http_rules.add("blockedexample.com");
  cfg.sni_rules.add("blockedexample.com");
  return cfg;
}

worldgen::WorldSpec tiny_spec() {
  worldgen::WorldSpec spec;
  spec.name = "world-tiny";
  spec.transit_ases = 2;
  spec.regional_ases = 4;
  spec.stub_ases = 10;
  spec.endpoints = 60;
  spec.profile_templates = 4;
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compact backend equivalence vs the classic pointer-based Topology.

TEST(CompactTopology, FingerprintMatchesClassicAndInflate) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    TwinTopologies t = make_twins(seed);
    EXPECT_EQ(t.compact->fingerprint(), t.classic.fingerprint()) << "seed " << seed;
    EXPECT_EQ(t.compact->inflate().fingerprint(), t.classic.fingerprint())
        << "seed " << seed;
  }
}

namespace {

enum class TopologyEdit { kNone, kMoveBanner, kRewriteTos, kSwapLinkOrder };

/// A small compact topology (hub, routers r1-r4 and a host) with one
/// optional edit applied: the banner on r1 moved to r2, r3's TOS rewrite
/// changed, or the hub's two links inserted in the other order (which
/// reorders the hub's adjacency row, and so its ECMP path order).
std::shared_ptr<const sim::CompactTopology> edited_topology(TopologyEdit edit) {
  sim::CompactTopologyBuilder b;
  sim::RouterProfile tos;
  tos.rewrite_tos = edit == TopologyEdit::kRewriteTos ? 0x40 : 0x20;
  const sim::NodeId hub = b.add_node("hub", net::Ipv4Address(10, 0, 0, 1));
  const sim::NodeId r1 = b.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
  const sim::NodeId r2 = b.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
  const sim::NodeId r3 = b.add_node("r3", net::Ipv4Address(10, 0, 3, 1), tos);
  const sim::NodeId r4 = b.add_node("r4", net::Ipv4Address(10, 0, 4, 1));
  const sim::NodeId host = b.add_node("", net::Ipv4Address(10, 0, 9, 1));
  if (edit == TopologyEdit::kSwapLinkOrder) {
    b.add_link(hub, r2);
    b.add_link(hub, r1);
  } else {
    b.add_link(hub, r1);
    b.add_link(hub, r2);
  }
  b.add_link(r1, r3);
  b.add_link(r2, r3);
  b.add_link(r3, r4);
  b.add_link(r4, host);
  b.add_service(edit == TopologyEdit::kMoveBanner ? r2 : r1,
                {22, "ssh", "SSH-2.0-OpenSSH_8.2p1"});
  return b.build();
}

}  // namespace

TEST(CompactTopology, FingerprintMovesOnEveryEditOnBothBackends) {
  const auto base = edited_topology(TopologyEdit::kNone);
  const std::uint64_t base_fp = base->fingerprint();
  EXPECT_EQ(base->inflate().fingerprint(), base_fp);
  for (TopologyEdit edit : {TopologyEdit::kMoveBanner, TopologyEdit::kRewriteTos,
                            TopologyEdit::kSwapLinkOrder}) {
    const auto edited = edited_topology(edit);
    EXPECT_NE(edited->fingerprint(), base_fp) << static_cast<int>(edit);
    EXPECT_NE(edited->inflate().fingerprint(), base_fp) << static_cast<int>(edit);
    EXPECT_EQ(edited->inflate().fingerprint(), edited->fingerprint())
        << static_cast<int>(edit);
  }
}

TEST(CompactTopology, StructureMatchesClassic) {
  TwinTopologies t = make_twins(99);
  const sim::CompactTopology& c = *t.compact;
  ASSERT_EQ(c.node_count(), t.classic.node_count());
  for (sim::NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(c.ip(id), t.classic.node(id).ip);
    EXPECT_EQ(c.name(id), t.classic.node(id).name);
    const auto& classic_svc = t.classic.node(id).services;
    const auto& compact_svc = c.services(id);
    ASSERT_EQ(compact_svc.size(), classic_svc.size()) << "node " << id;
    for (std::size_t i = 0; i < classic_svc.size(); ++i) {
      EXPECT_EQ(compact_svc[i].port, classic_svc[i].port);
      EXPECT_EQ(compact_svc[i].protocol, classic_svc[i].protocol);
      EXPECT_EQ(compact_svc[i].banner, classic_svc[i].banner);
    }
    std::span<const sim::NodeId> classic_adj = t.classic.neighbors(id);
    std::span<const sim::NodeId> compact_adj = c.neighbors(id);
    ASSERT_EQ(compact_adj.size(), classic_adj.size()) << "node " << id;
    for (std::size_t i = 0; i < classic_adj.size(); ++i) {
      EXPECT_EQ(compact_adj[i], classic_adj[i]) << "node " << id << " slot " << i;
    }
  }
  for (sim::NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(c.find_by_ip(c.ip(id)), t.classic.find_by_ip(c.ip(id)));
  }
  EXPECT_FALSE(c.find_by_ip(net::Ipv4Address(9, 9, 9, 9)).has_value());
}

TEST(CompactTopology, TraceAndProbeReportsMatchClassic) {
  // The same measurement on a compact-backed and a classic network must
  // serialize to byte-identical reports: verdicts, hops, banners and all.
  for (std::uint64_t seed : {3ull, 17ull, 2026ull}) {
    TwinTopologies t = make_twins(seed);
    sim::Network compact_net(sim::Topology::from_compact(t.compact), twin_geodb(), 42);
    sim::Network classic_net(std::move(t.classic), twin_geodb(), 42);
    compact_net.add_endpoint(t.server, twin_endpoint());
    classic_net.add_endpoint(t.server, twin_endpoint());
    scenario::deploy(compact_net, t.mid_router, twin_device());
    scenario::deploy(classic_net, t.mid_router, twin_device());

    EXPECT_EQ(compact_net.fingerprint(), classic_net.fingerprint()) << "seed " << seed;

    trace::TraceRunOptions opts;
    opts.client = t.client;
    opts.endpoint = compact_net.topology().node_ip(t.server);
    opts.test_domain = "www.blockedexample.com";
    opts.control_domain = "www.example.com";
    opts.trace.repetitions = 3;
    trace::CenTraceReport a = trace::run(compact_net, opts);
    trace::CenTraceReport b = trace::run(classic_net, opts);
    EXPECT_EQ(report::to_json(a), report::to_json(b)) << "seed " << seed;
    EXPECT_TRUE(a.blocked) << "seed " << seed;

    const net::Ipv4Address dev_ip = compact_net.topology().node_ip(t.mid_router);
    probe::DeviceProbeReport pa = probe::run(compact_net, probe::ProbeRunOptions{dev_ip});
    probe::DeviceProbeReport pb = probe::run(classic_net, probe::ProbeRunOptions{dev_ip});
    EXPECT_EQ(report::to_json(pa), report::to_json(pb)) << "seed " << seed;
  }
}

TEST(CompactTopology, BuilderGuardsIdOverflow) {
  sim::CompactTopologyBuilder small(3);
  small.add_node("a", net::Ipv4Address(1, 0, 0, 1));
  small.add_node("b", net::Ipv4Address(1, 0, 0, 2));
  small.add_node("c", net::Ipv4Address(1, 0, 0, 3));
  EXPECT_THROW(small.add_node("d", net::Ipv4Address(1, 0, 0, 4)), std::length_error);
  EXPECT_THROW(small.add_link(0, 99), std::out_of_range);
}

TEST(CompactTopology, CompactBackedTopologyIsImmutable) {
  TwinTopologies t = make_twins(5);
  sim::Topology topo = sim::Topology::from_compact(t.compact);
  EXPECT_TRUE(topo.compact());
  EXPECT_THROW(topo.add_node("x", net::Ipv4Address(1, 2, 3, 4)), std::logic_error);
  EXPECT_THROW(topo.add_link(0, 1), std::logic_error);
  EXPECT_THROW(topo.node(0), std::logic_error);
  // Narrow accessors stay available in both modes.
  EXPECT_EQ(topo.node_ip(t.client), net::Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(topo.node_name(t.client), "client");
}

// ---------------------------------------------------------------------------
// Generator determinism and spec plumbing.

TEST(WorldGen, SameSpecAndSeedIsByteIdentical) {
  const worldgen::WorldSpec spec = tiny_spec();
  worldgen::World a = worldgen::generate(spec, 11);
  worldgen::World b = worldgen::generate(spec, 11);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.topology->fingerprint(), b.topology->fingerprint());
  EXPECT_EQ(a.endpoint_ips, b.endpoint_ips);
  EXPECT_EQ(a.endpoint_nodes, b.endpoint_nodes);

  worldgen::World c = worldgen::generate(spec, 12);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(WorldGen, TierPresets) {
  ASSERT_EQ(worldgen::WorldSpec::tier_names().size(), 3u);
  auto k1 = worldgen::WorldSpec::tier("1k");
  auto k100 = worldgen::WorldSpec::tier("100k");
  auto m1 = worldgen::WorldSpec::tier("1m");
  ASSERT_TRUE(k1 && k100 && m1);
  EXPECT_EQ(k1->endpoints, 1'000u);
  EXPECT_EQ(k100->endpoints, 100'000u);
  EXPECT_EQ(m1->endpoints, 1'000'000u);
  EXPECT_FALSE(worldgen::WorldSpec::tier("2k").has_value());
}

TEST(WorldGen, SpecJsonRoundTrip) {
  worldgen::WorldSpec spec = tiny_spec();
  spec.endpoint_zipf = 1.3;
  std::string error;
  auto parsed = worldgen::spec_from_json(worldgen::to_json(spec), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fingerprint(), spec.fingerprint());
  EXPECT_EQ(parsed->name, spec.name);

  EXPECT_FALSE(worldgen::spec_from_json("not json", &error).has_value());
  EXPECT_FALSE(worldgen::spec_from_json(R"({"transit_ases": 0})", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(WorldGen, WorldStatsAndPopulation) {
  const worldgen::WorldSpec spec = tiny_spec();
  worldgen::World world = worldgen::generate(spec, 11);
  const worldgen::World::Stats st = world.stats();
  EXPECT_EQ(st.endpoints, spec.endpoints);
  EXPECT_EQ(st.ases, static_cast<std::size_t>(spec.transit_ases + spec.regional_ases +
                                              spec.stub_ases + 1));  // + measurement AS
  EXPECT_GT(st.devices, 0u);
  EXPECT_GT(st.bytes, 0u);
  // Endpoint templates are shared, not per-endpoint.
  EXPECT_EQ(world.templates.size(), spec.profile_templates);
}

TEST(WorldGen, InstantiateRunsTraceEndToEnd) {
  worldgen::World world = worldgen::generate(tiny_spec(), 11);
  worldgen::GeneratedScenario gen = worldgen::instantiate(world);
  ASSERT_NE(gen.network, nullptr);
  ASSERT_FALSE(gen.endpoints.empty());
  ASSERT_FALSE(gen.devices.empty());

  trace::TraceRunOptions opts;
  opts.client = gen.client;
  opts.endpoint = gen.endpoints.front();
  opts.test_domain = gen.http_test_domains.front();
  opts.control_domain = gen.control_domain;
  opts.trace.repetitions = 3;
  trace::CenTraceReport rep = trace::run(*gen.network, opts);
  EXPECT_GT(rep.endpoint_hop_distance, 0);
}

TEST(WorldGen, MakeWorldSpecOverloadMatchesInstantiate) {
  scenario::WorldScenario s = scenario::make_world(tiny_spec(), 11);
  worldgen::World world = worldgen::generate(tiny_spec(), 11);
  worldgen::GeneratedScenario gen = worldgen::instantiate(world);
  ASSERT_NE(s.network, nullptr);
  EXPECT_EQ(s.network->fingerprint(), gen.network->fingerprint());
  EXPECT_EQ(s.endpoints, gen.endpoints);
  EXPECT_EQ(s.devices.size(), gen.devices.size());
}

// ---------------------------------------------------------------------------
// Campaign integration: a world-backed campaign is byte-identical across
// thread counts and keyed separately from country campaigns.

TEST(WorldGen, CampaignGoldenAcrossThreads) {
  campaign::CampaignSpec spec;
  spec.name = "world-test";
  spec.world = tiny_spec();
  spec.seed = 11;
  spec.trace.repetitions = 2;
  spec.max_endpoints = 4;
  spec.max_domains = 1;
  spec.fuzz_max_endpoints = 2;

  std::string jsonl[4];
  std::string summary[4];
  const int threads[4] = {0, 1, 2, 8};
  for (int i = 0; i < 4; ++i) {
    campaign::RunControl control;
    control.threads = threads[i];
    campaign::CampaignResult r = campaign::run(spec, control);
    ASSERT_TRUE(r.complete) << "threads " << threads[i];
    jsonl[i] = r.to_jsonl();
    summary[i] = r.summary_json();
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(jsonl[0], jsonl[i]) << "threads " << threads[i];
    EXPECT_EQ(summary[0], summary[i]) << "threads " << threads[i];
  }
  EXPECT_FALSE(jsonl[0].empty());
  ASSERT_EQ(campaign::run(spec, {}).countries, std::vector<std::string>{"world-tiny"});
}

TEST(WorldGen, CampaignBuildsOneShortestPathTreePerWorker) {
  // Every task of a world campaign routes from the site's one client, so
  // each worker replica runs at most one full BFS over the whole campaign.
  campaign::CampaignSpec spec;
  spec.name = "world-trees";
  spec.world = *worldgen::WorldSpec::tier("1k");
  spec.seed = 11;
  spec.trace.repetitions = 2;
  spec.max_endpoints = 12;
  spec.max_domains = 1;
  spec.fuzz_max_endpoints = 2;

  obs::Observer observer;
  campaign::RunControl control;
  control.threads = 4;
  control.observer = &observer;
  ASSERT_TRUE(campaign::run(spec, control).complete);
  obs::Registry& m = observer.metrics();
  const std::uint64_t trees = m.counter("pathcache.trees", obs::Domain::kWall).value();
  EXPECT_GE(trees, 1u);
  EXPECT_LE(trees, 4u);
  EXPECT_GT(m.counter("pathcache.misses", obs::Domain::kWall).value(), trees);
}

TEST(WorldGen, CampaignSpecWorldFingerprintAndJson) {
  campaign::CampaignSpec plain;
  campaign::CampaignSpec with_world = plain;
  with_world.world = tiny_spec();
  EXPECT_NE(plain.fingerprint(), with_world.fingerprint());
  // The "world" key only appears when a world is configured, so existing
  // country-campaign spec documents are unchanged.
  EXPECT_EQ(campaign::to_json(plain).find("\"world\""), std::string::npos);
  EXPECT_NE(campaign::to_json(with_world).find("\"world\""), std::string::npos);

  std::string error;
  auto parsed = campaign::spec_from_json(campaign::to_json(with_world), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->world.has_value());
  EXPECT_EQ(parsed->world->fingerprint(), with_world.world->fingerprint());
  EXPECT_EQ(parsed->fingerprint(), with_world.fingerprint());
}

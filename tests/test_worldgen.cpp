// Worldgen + compact-topology acceptance: the structure-of-arrays topology
// must hold exactly what it was built from (nodes, links in order,
// services), keep its pinned fingerprints and trace/probe reports, and
// trip its 32-bit id guards cleanly; generate(spec, seed) must be a pure
// function of its arguments — byte-identical worlds, campaigns and
// fan-outs at every thread count (docs/WORLDGEN.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "cenprobe/fingerprints.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/fingerprint.hpp"
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

/// A topology built from randomized draws — a router chain with extra
/// cross links, random ICMP profiles, sparse services and a server leaf —
/// together with the input lists it was built from.
struct RandomTopology {
  struct NodeInput {
    std::string name;
    net::Ipv4Address ip;
    sim::RouterProfile profile;
  };
  std::vector<NodeInput> nodes;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> links;
  std::vector<std::pair<sim::NodeId, censor::ServiceBanner>> services;
  std::shared_ptr<const sim::CompactTopology> built;
  sim::NodeId client = sim::kInvalidNode;
  sim::NodeId server = sim::kInvalidNode;
  sim::NodeId mid_router = sim::kInvalidNode;
  std::vector<sim::NodeId> routers;
};

RandomTopology make_random_topology(std::uint64_t seed, int n_routers = 6) {
  RandomTopology t;
  sim::CompactTopologyBuilder cb;
  Rng rng(seed);

  auto add = [&](const std::string& name, net::Ipv4Address ip,
                 const sim::RouterProfile& profile) {
    t.nodes.push_back({name, ip, profile});
    return cb.add_node(name, ip, profile);
  };
  auto link = [&](sim::NodeId a, sim::NodeId b) {
    t.links.emplace_back(a, b);
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
      t.services.emplace_back(r, ssh);
      cb.add_service(r, ssh);
    }
    t.routers.push_back(r);
  }
  // The device test attaches here: the server hangs off the last router,
  // so every equal-cost path traverses it regardless of the cross links.
  t.mid_router = t.routers.back();
  t.server = add("server", net::Ipv4Address(10, 0, 99, 1), host);
  link(t.routers.back(), t.server);
  t.built = cb.build();
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
// The compact topology against its own inputs.

TEST(CompactTopology, FingerprintsArePinned) {
  // Values from before every network was built through the builder: the
  // classic and compact fingerprints were then asserted equal.
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {1, 0x3b099eb68c9c3743ULL},
      {7, 0xaa5dbf2a8189bdd7ULL},
      {42, 0xb06993d283978896ULL},
      {1234, 0x5445d709c1f2f15fULL},
  };
  for (const auto& [seed, expected] : pins) {
    const std::uint64_t actual = make_random_topology(seed).built->fingerprint();
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(actual));
    EXPECT_EQ(expected, actual) << "seed " << seed << " fingerprint is now " << hex;
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

TEST(CompactTopology, FingerprintMovesOnEveryEdit) {
  const std::uint64_t base_fp = edited_topology(TopologyEdit::kNone)->fingerprint();
  for (TopologyEdit edit : {TopologyEdit::kMoveBanner, TopologyEdit::kRewriteTos,
                            TopologyEdit::kSwapLinkOrder}) {
    EXPECT_NE(edited_topology(edit)->fingerprint(), base_fp) << static_cast<int>(edit);
  }
}

TEST(CompactTopology, StructureMatchesInput) {
  const RandomTopology t = make_random_topology(99);
  const sim::CompactTopology& c = *t.built;
  ASSERT_EQ(c.node_count(), t.nodes.size());
  ASSERT_EQ(c.link_count(), t.links.size());
  for (sim::NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(c.ip(id), t.nodes[id].ip);
    EXPECT_EQ(c.name(id), t.nodes[id].name);
    EXPECT_EQ(c.profile(id).quote_policy, t.nodes[id].profile.quote_policy);
    EXPECT_EQ(c.profile(id).rewrite_tos, t.nodes[id].profile.rewrite_tos);
    EXPECT_EQ(c.profile(id).responds_icmp, t.nodes[id].profile.responds_icmp);
    EXPECT_EQ(c.find_by_ip(c.ip(id)), id);

    std::vector<std::string> expected_banners;
    for (const auto& [node, s] : t.services) {
      if (node == id) expected_banners.push_back(s.protocol + ":" + s.banner);
    }
    std::vector<std::string> banners;
    for (const censor::ServiceBanner& s : c.services(id)) {
      EXPECT_EQ(s.port, 22);
      banners.push_back(s.protocol + ":" + s.banner);
    }
    EXPECT_EQ(banners, expected_banners) << "node " << id;

    // Each neighbour row lists the node's links in the order they were added.
    std::vector<sim::NodeId> expected_row;
    for (const auto& [a, b] : t.links) {
      if (a == id) expected_row.push_back(b);
      if (b == id) expected_row.push_back(a);
    }
    const std::span<const sim::NodeId> row = c.neighbors(id);
    EXPECT_EQ(std::vector<sim::NodeId>(row.begin(), row.end()), expected_row) << "node " << id;
  }
  EXPECT_EQ(c.links(), t.links);
  EXPECT_FALSE(c.find_by_ip(net::Ipv4Address(9, 9, 9, 9)).has_value());
}

// A trace and a probe over randomized topologies, pinned: the values were
// taken while a classic build of the same input was asserted to report
// byte-identically.
TEST(PinnedDigests, TwinTraceAndProbeReports) {
  auto reports = [](std::uint64_t seed) {
    const RandomTopology t = make_random_topology(seed);
    sim::Network net(sim::Topology(t.built), twin_geodb(), 42);
    net.add_endpoint(t.server, twin_endpoint());
    scenario::deploy(net, t.mid_router, twin_device());
    trace::TraceRunOptions opts;
    opts.client = t.client;
    opts.endpoint = net.topology().node_ip(t.server);
    opts.test_domain = "www.blockedexample.com";
    opts.control_domain = "www.example.com";
    opts.trace.repetitions = 3;
    const net::Ipv4Address dev_ip = net.topology().node_ip(t.mid_router);
    return FingerprintBuilder()
        .mix(report::to_json(trace::run(net, opts)))
        .mix(report::to_json(probe::run(net, probe::ProbeRunOptions{dev_ip, {}})))
        .digest();
  };
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {3, 0x192107895490aa56ULL},
      {17, 0x482f4f205b10d033ULL},
      {2026, 0xb4fbd9b480cc63c1ULL},
  };
  for (const auto& [seed, expected] : pins) {
    const std::uint64_t actual = reports(seed);
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(actual));
    EXPECT_EQ(expected, actual) << "seed " << seed << " digest is now " << hex;
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

TEST(WorldGen, AsTierNames) {
  // The names `cen world --dump` prints for each AS tier.
  EXPECT_EQ(worldgen::as_tier_name(worldgen::AsTier::kTransit), "transit");
  EXPECT_EQ(worldgen::as_tier_name(worldgen::AsTier::kRegional), "regional");
  EXPECT_EQ(worldgen::as_tier_name(worldgen::AsTier::kStub), "stub");
  EXPECT_EQ(std::size(worldgen::kAsTierNames), 3u);
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

TEST(WorldGen, SpecNumbersSaturate) {
  // Out-of-range numbers clamp to the member's range; a plain cast of such
  // a double to an integer is undefined behaviour.
  const std::string base = worldgen::to_json(tiny_spec());
  const std::tuple<const char*, std::uint32_t, std::uint64_t> extremes[] = {
      {"-1", 0, 0},
      {"1e300", std::numeric_limits<std::uint32_t>::max(),
       std::numeric_limits<std::uint64_t>::max()},
      {"-1e300", 0, 0}};
  for (const auto& [x, want32, want64] : extremes) {
    const std::string v(x);
    auto spec = worldgen::spec_from_json(R"({"regional_ases":)" + v + R"(,"endpoints":)" + v +
                                         "," + base.substr(1));
    ASSERT_TRUE(spec.has_value()) << x;
    EXPECT_EQ(spec->regional_ases, want32) << x;
    EXPECT_EQ(spec->endpoints, want64) << x;
  }
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

TEST(WorldGen, NetworkFingerprintPinned) {
  // Campaign cache keys hash the network fingerprint. Pinned before the
  // endpoint table became ip/host columns registered in one bulk call and
  // before ascending topologies dropped their ip index.
  const worldgen::WorldSpec spec = *worldgen::WorldSpec::tier("1k");
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {3, 0x5d29b7f85996a5ddULL},
      {11, 0x283cc56428c07dd8ULL},
  };
  for (const auto& [seed, expected] : pins) {
    EXPECT_EQ(scenario::make_world(spec, seed).network->fingerprint(), expected)
        << "seed " << seed;
  }
  const worldgen::World world = worldgen::generate(spec, 3);
  EXPECT_EQ(worldgen::instantiate(world, 17).network->fingerprint(), 0xb3445a72d6bbef26ULL);
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

TEST(WorldGen, CampaignBuildsOneShortestPathTreePerSource) {
  // Every task of a world campaign routes from the site's one client, and
  // the worker replicas share the network's tree cache, so the whole
  // campaign runs one full BFS however many workers route from it.
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
  EXPECT_EQ(trees, 1u);
  EXPECT_GT(m.counter("pathcache.misses", obs::Domain::kWall).value(), trees);
}

TEST(WorldGen, CampaignSpecWorldFingerprintAndJson) {
  campaign::CampaignSpec plain;
  campaign::CampaignSpec with_world = plain;
  with_world.world = tiny_spec();
  // The "world" key only appears when a world is configured, so existing
  // country-campaign spec documents are unchanged.
  EXPECT_EQ(campaign::to_json(plain).find("\"world\""), std::string::npos);
  EXPECT_NE(campaign::to_json(with_world).find("\"world\""), std::string::npos);

  std::string error;
  auto parsed = campaign::spec_from_json(campaign::to_json(with_world), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->world.has_value());
  EXPECT_EQ(parsed->world->fingerprint(), with_world.world->fingerprint());
  EXPECT_EQ(campaign::to_json(*parsed), campaign::to_json(with_world));
}

#include <gtest/gtest.h>

#include "censor/vendors.hpp"
#include "evolve/genetic.hpp"

using namespace cen;
using namespace cen::evolve;

namespace {

struct EvolveNet {
  explicit EvolveNet(const std::string& vendor) {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
    sim::NodeId r2 = topo.add_node("r2", net::Ipv4Address(10, 0, 2, 1));
    sim::NodeId server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(client, r1);
    topo.add_link(r1, r2);
    topo.add_link(r2, server);
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), geo::IpMetadataDb{});
    sim::EndpointProfile p;
    p.hosted_domains = {"blocked.example"};
    p.serves_subdomains = true;
    p.default_vhost_for_unknown = true;
    net->add_endpoint(server, p);
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "evolve-target");
    cfg.http_rules.add("blocked.example");
    cfg.sni_rules.add("blocked.example");
    net->attach_device(r2, std::make_shared<censor::Device>(cfg));
  }
  sim::NodeId client;
  std::unique_ptr<sim::Network> net;
};

}  // namespace

TEST(Genetic, ExpressAppliesGenesInOrder) {
  Genome g;
  g.genes = {{Gene::Field::kMethod, "PATCH"},
             {Gene::Field::kHostPrefix, "**"},
             {Gene::Field::kHostSuffix, "*"}};
  net::HttpRequest r = express(g, "www.blocked.example");
  EXPECT_EQ(r.method, "PATCH");
  EXPECT_EQ(r.host, "**www.blocked.example*");
}

TEST(Genetic, RandomGeneDrawsFromAlphabet) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    Gene g = random_gene(rng);
    net::HttpRequest r = express(Genome{{g}, 0, 0}, "x.com");
    EXPECT_FALSE(r.serialize().empty());
  }
}

TEST(Genetic, FindsEvasionAgainstDropCensor) {
  EvolveNet en("TSPU");
  GeneticOptions opts;
  opts.generations = 12;
  GeneticResult result = evolve_evasion(*en.net, en.client,
                                        net::Ipv4Address(10, 0, 9, 1),
                                        "www.blocked.example", opts);
  EXPECT_TRUE(result.found_evasion);
  EXPECT_GT(result.total_probes, 0);
  // The winning genome genuinely evades: replaying it gets a response.
  net::HttpRequest winner = express(result.best, "www.blocked.example");
  sim::Connection conn = en.net->open_connection(en.client, net::Ipv4Address(10, 0, 9, 1));
  ASSERT_EQ(conn.connect(), sim::ConnectResult::kEstablished);
  EXPECT_FALSE(conn.send(winner.serialize_bytes(), 64).empty());
}

TEST(Genetic, FindsCircumventionOnTolerantServer) {
  EvolveNet en("Cisco");  // exact-match rules: hostname mutations circumvent
  GeneticOptions opts;
  opts.generations = 15;
  GeneticResult result = evolve_evasion(*en.net, en.client,
                                        net::Ipv4Address(10, 0, 9, 1),
                                        "www.blocked.example", opts);
  EXPECT_TRUE(result.found_circumvention)
      << "best fitness " << result.best.fitness;
}

TEST(Genetic, DeterministicPerSeed) {
  GeneticOptions opts;
  opts.generations = 5;
  EvolveNet a("TSPU"), b("TSPU");
  GeneticResult ra = evolve_evasion(*a.net, a.client, net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", opts);
  GeneticResult rb = evolve_evasion(*b.net, b.client, net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", opts);
  EXPECT_EQ(ra.best.genes, rb.best.genes);
  EXPECT_EQ(ra.total_probes, rb.total_probes);
}

TEST(Genetic, UncensoredPathConvergesImmediately) {
  // No device at all: the baseline already fetches content, generation 1
  // should end the search at full fitness.
  sim::CompactTopologyBuilder topo;
  sim::NodeId client = topo.add_node("c", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId r1 = topo.add_node("r", net::Ipv4Address(10, 0, 1, 1));
  sim::NodeId server = topo.add_node("s", net::Ipv4Address(10, 0, 9, 1));
  topo.add_link(client, r1);
  topo.add_link(r1, server);
  sim::Network net(sim::Topology(topo.build()), geo::IpMetadataDb{});
  sim::EndpointProfile p;
  p.hosted_domains = {"blocked.example"};
  p.serves_subdomains = true;
  net.add_endpoint(server, p);

  GeneticResult result =
      evolve_evasion(net, client, net::Ipv4Address(10, 0, 9, 1), "www.blocked.example");
  EXPECT_TRUE(result.found_circumvention);
  EXPECT_LE(result.generations_run, 2);
}

TEST(Genetic, DifferentVendorsYieldDifferentWinners) {
  // Geneva's fingerprinting weakness, demonstrated: winning strategies are
  // run- and device-specific (here: the Kerio winner need not evade via
  // the same field the MikroTik winner used), unlike CenFuzz's fixed sweep.
  GeneticOptions opts;
  opts.generations = 10;
  EvolveNet kerio("Kerio"), mikrotik("MikroTik");
  GeneticResult rk = evolve_evasion(*kerio.net, kerio.client,
                                    net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", opts);
  GeneticResult rm = evolve_evasion(*mikrotik.net, mikrotik.client,
                                    net::Ipv4Address(10, 0, 9, 1),
                                    "www.blocked.example", opts);
  EXPECT_TRUE(rk.found_evasion);
  EXPECT_TRUE(rm.found_evasion);
}

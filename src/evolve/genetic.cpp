#include "evolve/genetic.hpp"

#include <algorithm>

#include "core/strings.hpp"

namespace cen::evolve {

namespace {

const std::vector<std::string>& alphabet_for(Gene::Field field) {
  static const std::vector<std::string> kMethods = {"POST", "PUT",  "PATCH", "DELETE",
                                                    "HEAD", "GeT",  "GE",    ""};
  static const std::vector<std::string> kPaths = {"?", "z", "//", "/index.html", "*"};
  static const std::vector<std::string> kVersions = {"HTTP/1.0", "HTTP/9", "HTP/1.1",
                                                     "http/1.1", "XXXX/1.1", ""};
  static const std::vector<std::string> kHostWords = {"HostHeader: ", "hOsT: ", "ost: ",
                                                      "Host ", "XXXX: "};
  static const std::vector<std::string> kPads = {"*", "**", "x."};
  static const std::vector<std::string> kDelims = {"\n", "\r", ""};
  switch (field) {
    case Gene::Field::kMethod: return kMethods;
    case Gene::Field::kPath: return kPaths;
    case Gene::Field::kVersion: return kVersions;
    case Gene::Field::kHostWord: return kHostWords;
    case Gene::Field::kHostPrefix: return kPads;
    case Gene::Field::kHostSuffix: return kPads;
    case Gene::Field::kLineDelim: return kDelims;
  }
  return kMethods;
}

constexpr Gene::Field kAllFields[] = {
    Gene::Field::kMethod,     Gene::Field::kPath,      Gene::Field::kVersion,
    Gene::Field::kHostWord,   Gene::Field::kHostPrefix, Gene::Field::kHostSuffix,
    Gene::Field::kLineDelim};

}  // namespace

Gene random_gene(Rng& rng) {
  Gene g;
  g.field = kAllFields[rng.index(std::size(kAllFields))];
  const std::vector<std::string>& alphabet = alphabet_for(g.field);
  g.value = alphabet[rng.index(alphabet.size())];
  return g;
}

net::HttpRequest express(const Genome& genome, const std::string& domain) {
  net::HttpRequest r = net::HttpRequest::get(domain);
  for (const Gene& g : genome.genes) {
    switch (g.field) {
      case Gene::Field::kMethod: r.method = g.value; break;
      case Gene::Field::kPath: r.path = g.value; break;
      case Gene::Field::kVersion: r.version = g.value; break;
      case Gene::Field::kHostWord: r.host_word = g.value; break;
      case Gene::Field::kHostPrefix: r.host = g.value + r.host; break;
      case Gene::Field::kHostSuffix: r.host += g.value; break;
      case Gene::Field::kLineDelim: r.request_line_delim = g.value; break;
    }
  }
  return r;
}

namespace {

/// Send one expressed request; fitness 0 = blocked, 1 = evaded (any
/// application response), 2 = evaded and fetched the intended content.
double evaluate(sim::Network& network, sim::NodeId client, net::Ipv4Address endpoint,
                const net::HttpRequest& request, const std::string& test_domain,
                int& probes) {
  ++probes;
  sim::Connection conn = network.open_connection(client, endpoint, 80);
  if (conn.connect() != sim::ConnectResult::kEstablished) return 0.0;
  std::vector<sim::Event> events = conn.send(request.serialize_bytes(), 64);
  network.clock().advance(120 * kSecond);  // stay clear of residual windows
  if (events.empty()) return 0.0;          // dropped
  for (const sim::Event& ev : events) {
    const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
    if (tcp == nullptr) continue;
    if (tcp->packet.tcp.has(net::TcpFlags::kRst) ||
        tcp->packet.tcp.has(net::TcpFlags::kFin)) {
      return 0.0;  // injected teardown
    }
    if (tcp->packet.payload.empty()) continue;
    auto resp = net::HttpResponse::view(as_text(tcp->packet.payload));
    if (!resp) continue;
    if (resp->body.find("Blocked") != std::string::npos) return 0.0;  // blockpage
    std::vector<std::string> labels = split(test_domain, '.');
    std::string registrable =
        labels.size() >= 2 ? labels[labels.size() - 2] + "." + labels.back()
                           : test_domain;
    if (resp->status == 200 && resp->body.find(registrable) != std::string::npos) {
      return 2.0;  // legitimate content for the intended domain
    }
    return 1.0;  // some response got through the censor
  }
  return 1.0;
}

}  // namespace

GeneticResult evolve_evasion(sim::Network& network, sim::NodeId client,
                             net::Ipv4Address endpoint, const std::string& test_domain,
                             GeneticOptions options) {
  GeneticResult result;
  Rng rng(options.seed);
  int probes = 0;

  auto evaluate_genome = [&](Genome& genome) {
    genome.fitness = evaluate(network, client, endpoint, express(genome, test_domain),
                              test_domain, probes);
    genome.probes_used = probes;
  };

  // Seed population: single random genes (plus the unmodified baseline,
  // which should score 0 against a censored domain).
  std::vector<Genome> population(options.population);
  for (std::size_t i = 1; i < population.size(); ++i) {
    population[i].genes = {random_gene(rng)};
  }
  for (Genome& genome : population) evaluate_genome(genome);

  auto best_of = [](const std::vector<Genome>& pop) {
    return *std::max_element(pop.begin(), pop.end(),
                             [](const Genome& a, const Genome& b) {
                               return a.fitness < b.fitness;
                             });
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    result.generations_run = static_cast<int>(gen) + 1;
    if (best_of(population).fitness >= options.target_fitness) break;

    std::vector<Genome> next;
    next.push_back(best_of(population));  // elitism
    while (next.size() < options.population) {
      // Tournament selection of two parents.
      auto tournament = [&]() -> const Genome& {
        const Genome& a = population[rng.index(population.size())];
        const Genome& b = population[rng.index(population.size())];
        return a.fitness >= b.fitness ? a : b;
      };
      Genome child = tournament();
      if (rng.chance(options.crossover_rate)) {
        const Genome& other = tournament();
        // One-point crossover on the gene lists.
        Genome crossed;
        std::size_t cut_a = child.genes.empty() ? 0 : rng.index(child.genes.size() + 1);
        std::size_t cut_b = other.genes.empty() ? 0 : rng.index(other.genes.size() + 1);
        crossed.genes.assign(child.genes.begin(),
                             child.genes.begin() + static_cast<std::ptrdiff_t>(cut_a));
        crossed.genes.insert(crossed.genes.end(),
                             other.genes.begin() + static_cast<std::ptrdiff_t>(cut_b),
                             other.genes.end());
        child = std::move(crossed);
      }
      if (rng.chance(options.mutation_rate) || child.genes.empty()) {
        if (!child.genes.empty() && rng.chance(0.3)) {
          child.genes.erase(child.genes.begin() +
                            static_cast<std::ptrdiff_t>(rng.index(child.genes.size())));
        } else {
          child.genes.push_back(random_gene(rng));
        }
      }
      if (child.genes.size() > options.max_genes) child.genes.resize(options.max_genes);
      evaluate_genome(child);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }

  result.best = best_of(population);
  result.total_probes = probes;
  result.found_evasion = result.best.fitness >= 1.0;
  result.found_circumvention = result.best.fitness >= 2.0;
  return result;
}

}  // namespace cen::evolve

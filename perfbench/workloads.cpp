#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/rng.hpp"
#include "report/from_json.hpp"
#include "scenario/country.hpp"
#include "scenario/world.hpp"
#include "worldgen/spec.hpp"

namespace perfbench {

using namespace cen;

Workload make_workload(std::string_view name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = std::string(name);
  campaign::CampaignSpec& spec = w.spec;
  spec.name = "perfbench-" + w.name;
  spec.seed = seed;
  if (name == "country-cold" || name == "country-warm") {
    // The paper's four countries, default spec: 11 CenTrace repetitions,
    // batch size 8, trace/probe/fuzz/cluster, inert faults.
    w.warm = name == "country-warm";
    spec.scale = scenario::Scale::kFull;
    spec.max_endpoints = kCountryEndpointCap;
    if (tiny) {
      spec.countries = {scenario::Country::kKZ};
      spec.scale = scenario::Scale::kSmall;
      spec.max_endpoints = 2;
      spec.max_domains = 2;
    }
    return w;
  }
  if (name == "world-faults") {
    // A generated world with the ambiguity stage on and a fault plan that
    // makes CenTrace retry (transient loss) and degrade (ICMP rate limit).
    // Tomography stays off: a world site has a single vantage.
    // The world is a fixed dataset (one generation seed); the workload
    // seed names the measured domains, which sets every task's identity
    // and so its substream. Names keep one length so report sizes do not
    // drift with the seed.
    spec.seed = kWorldSeed;
    spec.world = worldgen::WorldSpec::tier(tiny ? "1k" : "1m");
    char domain[32];
    std::snprintf(domain, sizeof(domain), "www.w%08llx",
                  static_cast<unsigned long long>(mix64(seed) & 0xffffffffULL));
    spec.world->http_test_domains = {std::string(domain) + ".com"};
    spec.world->https_test_domains = {std::string(domain) + ".org"};
    spec.max_endpoints = tiny ? 3 : kWorldEndpointCap;
    spec.stages.ambig = true;
    spec.faults.transient_loss = 0.02;
    spec.faults.default_node.icmp_rate_per_sec = 0.0005;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::vector<Site> build_sites(const campaign::CampaignSpec& spec) {
  std::vector<Site> sites;
  if (spec.world) {
    scenario::WorldScenario ws = scenario::make_world(*spec.world, spec.seed);
    sites.push_back({spec.world->name, std::move(ws.network), ws.client,
                     std::move(ws.control_domain)});
    return sites;
  }
  for (scenario::Country c : spec.effective_countries()) {
    scenario::CountryScenario sc = scenario::make_country(c, spec.scale, spec.seed);
    sites.push_back({std::string(scenario::country_code(c)), std::move(sc.network),
                     sc.remote_client, std::move(sc.control_domain)});
  }
  return sites;
}

std::size_t total_tasks(const campaign::CampaignResult& result) {
  return result.trace.tasks + result.probe.tasks + result.fuzz.tasks + result.ambig.tasks;
}

bool decodes(std::string_view stage, std::string_view doc) {
  if (stage == "trace") return report::trace_report_from_json(doc).has_value();
  if (stage == "probe") return report::probe_report_from_json(doc).has_value();
  if (stage == "fuzz") return report::fuzz_report_from_json(doc).has_value();
  if (stage == "ambig") return report::ambig_report_from_json(doc).has_value();
  return false;
}

std::size_t failed_tasks(const campaign::CampaignResult& result) {
  const std::size_t tasks = total_tasks(result);
  if (!result.complete) return tasks;
  std::size_t good = 0;
  for (const campaign::CampaignRecord& r : result.records) {
    if (decodes(r.stage, r.json)) ++good;
  }
  return good >= tasks ? 0 : tasks - good;
}

namespace {

struct Fnv128 {
  std::uint64_t a = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t b = 0x6c62272e07bb0142ULL;   // second chain, distinct basis

  void update(std::string_view bytes) {
    for (char c : bytes) {
      const auto u = static_cast<unsigned char>(c);
      a = (a ^ u) * 1099511628211ULL;
      b = (b ^ u) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
    }
  }
};

}  // namespace

std::string output_hash(const campaign::CampaignResult& result) {
  Fnv128 h;
  const std::string jsonl = result.to_jsonl();
  const std::string summary = result.summary_json();
  h.update(jsonl);
  h.update("\n--summary--\n");
  h.update(summary);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(h.a),
                static_cast<unsigned long long>(h.b));
  return buf;
}

}  // namespace perfbench

#include "worldgen/spec.hpp"

#include "core/fingerprint.hpp"
#include "report/wire.hpp"

namespace cen::worldgen {

std::optional<WorldSpec> WorldSpec::tier(std::string_view name) {
  WorldSpec s;
  if (name == "1k") {
    s.name = "world-1k";
    s.transit_ases = 8;
    s.regional_ases = 24;
    s.stub_ases = 60;
    s.endpoints = 1'000;
    return s;
  }
  if (name == "100k") {
    s.name = "world-100k";
    s.transit_ases = 16;
    s.regional_ases = 120;
    s.stub_ases = 800;
    s.endpoints = 100'000;
    return s;
  }
  if (name == "1m") {
    s.name = "world-1m";
    s.transit_ases = 24;
    s.regional_ases = 300;
    s.stub_ases = 2'500;
    s.endpoints = 1'000'000;
    return s;
  }
  return std::nullopt;
}

const std::vector<std::string>& WorldSpec::tier_names() {
  static const std::vector<std::string> kTiers = {"1k", "100k", "1m"};
  return kTiers;
}

std::vector<CountryRegimeSpec> WorldSpec::effective_countries() const {
  if (!countries.empty()) return countries;
  // Default mixture: a censored-heavy synthetic region set spanning every
  // rule-granularity family in make_rules (exact / suffix / substring) and
  // both blockpage and RST-injection styles, plus uncensored backdrop
  // countries so campaigns see negative controls.
  std::vector<CountryRegimeSpec> defaults;
  auto add = [&defaults](std::string code, double weight, bool censored,
                         std::vector<std::string> vendors, double coverage,
                         double on_path) {
    CountryRegimeSpec c;
    c.code = std::move(code);
    c.weight = weight;
    c.censored = censored;
    c.vendors = std::move(vendors);
    c.deploy_coverage = coverage;
    c.on_path_share = on_path;
    defaults.push_back(std::move(c));
  };
  add("XA", 2.0, true, {"Fortinet", "Kerio", "PaloAlto"}, 0.6, 0.10);
  add("XB", 1.5, true, {"BY-DPI", "MikroTik"}, 0.8, 0.05);
  add("XC", 1.5, true, {"TSPU", "RU-RSTCOPY", "DDoSGuard"}, 0.7, 0.25);
  add("XD", 1.0, true, {"Cisco", "Kaspersky"}, 0.5, 0.10);
  add("XE", 2.0, false, {}, 0.0, 0.0);
  add("XF", 2.0, false, {}, 0.0, 0.0);
  return defaults;
}

std::uint64_t WorldSpec::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(name);
  fp.mix(static_cast<std::uint64_t>(transit_ases));
  fp.mix(static_cast<std::uint64_t>(regional_ases));
  fp.mix(static_cast<std::uint64_t>(stub_ases));
  fp.mix(static_cast<std::uint64_t>(routers_per_transit));
  fp.mix(static_cast<std::uint64_t>(routers_per_regional));
  fp.mix(static_cast<std::uint64_t>(routers_per_stub));
  fp.mix(endpoints);
  fp.mix(endpoint_zipf);
  fp.mix(static_cast<std::uint64_t>(profile_templates));
  fp.mix(static_cast<std::uint64_t>(http_test_domains.size()));
  for (const std::string& d : http_test_domains) fp.mix(d);
  fp.mix(static_cast<std::uint64_t>(https_test_domains.size()));
  for (const std::string& d : https_test_domains) fp.mix(d);
  fp.mix(control_domain);
  const std::vector<CountryRegimeSpec> regimes = effective_countries();
  fp.mix(static_cast<std::uint64_t>(regimes.size()));
  for (const CountryRegimeSpec& c : regimes) {
    fp.mix(c.code);
    fp.mix(c.weight);
    fp.mix(c.censored);
    fp.mix(static_cast<std::uint64_t>(c.vendors.size()));
    for (const std::string& v : c.vendors) fp.mix(v);
    fp.mix(c.deploy_coverage);
    fp.mix(c.on_path_share);
  }
  return fp.digest();
}

std::string to_json(const WorldSpec& spec) {
  WorldSpec expanded = spec;
  expanded.countries = spec.effective_countries();
  return report::wire::encode(expanded, JsonNumbers::kExact);
}

bool check_spec(const WorldSpec& spec, std::string* error) {
  auto fail = [&](std::string_view why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (spec.transit_ases == 0 || spec.stub_ases == 0) {
    return fail("transit_ases and stub_ases must be >= 1");
  }
  if (spec.routers_per_transit == 0 || spec.routers_per_regional == 0 ||
      spec.routers_per_stub == 0) {
    return fail("routers_per_* must be >= 1");
  }
  if (spec.profile_templates == 0) return fail("profile_templates must be >= 1");
  if (spec.http_test_domains.empty() || spec.https_test_domains.empty()) {
    return fail("http_test_domains and https_test_domains must be non-empty");
  }
  for (const CountryRegimeSpec& c : spec.countries) {
    if (c.code.empty()) return fail("countries.code must be non-empty");
    if (!(c.weight > 0.0)) return fail("countries.weight must be > 0");
  }
  return true;
}

std::optional<WorldSpec> spec_from_json(std::string_view text, std::string* error) {
  std::optional<WorldSpec> spec =
      report::wire::decode<WorldSpec>(text, JsonNumbers::kExact, error);
  if (spec && !check_spec(*spec, error)) return std::nullopt;
  return spec;
}

}  // namespace cen::worldgen

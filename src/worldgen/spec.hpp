// WorldSpec: the declarative input of the synthetic world generator.
//
// A spec names the *shape* of an internet-scale world — how many transit /
// regional / stub ASes the power-law graph holds, how many endpoint hosts
// populate it (Zipf-skewed across stub ASes, like real hosting density),
// and which censorship regimes govern which countries (vendor mixtures,
// deployment coverage, in-path vs on-path shares). Everything else is
// drawn deterministically from `(spec, seed)` by worldgen::generate(), so
// the pair is the complete identity of a world: World::fingerprint() mixes
// spec.fingerprint() with the seed.
//
// Specs are JSON-loadable (cen world --spec, cen campaign "world" object;
// the schema is the field table of report/wire.hpp) and three built-in
// scale tiers — "1k", "100k", "1m" endpoints — cover the benchmark ladder
// without spec files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cen::worldgen {

/// Censorship regime of one synthetic country: which vendors deploy there,
/// how much of the country's stub ASes they cover, and how often they tap
/// on-path instead of sitting in-path.
struct CountryRegimeSpec {
  std::string code;       ///< two-letter-style synthetic country code
  double weight = 1.0;    ///< share of stub ASes homed in this country
  bool censored = false;  ///< uncensored countries deploy nothing
  /// Vendor names understood by censor::make_vendor_device; deployments
  /// cycle through this list deterministically.
  std::vector<std::string> vendors;
  double deploy_coverage = 0.5;  ///< fraction of the country's stub ASes with a device
  double on_path_share = 0.1;    ///< of deployed devices, fraction tapping on-path
};

struct WorldSpec {
  std::string name = "world-1k";

  // AS-graph shape (preferential attachment over three tiers).
  std::uint32_t transit_ases = 8;
  std::uint32_t regional_ases = 24;
  std::uint32_t stub_ases = 60;
  std::uint32_t routers_per_transit = 3;
  std::uint32_t routers_per_regional = 2;
  std::uint32_t routers_per_stub = 1;

  // Endpoint population, Zipf-skewed across stub ASes.
  std::uint64_t endpoints = 1000;
  double endpoint_zipf = 1.1;
  /// Endpoint web-server behaviour is drawn from this many shared profile
  /// templates (a million hosts share a handful of immutable profiles).
  std::uint32_t profile_templates = 8;

  // Measurement domains (same roles as the hand-built scenarios).
  std::vector<std::string> http_test_domains{"www.blockedexample.com"};
  std::vector<std::string> https_test_domains{"www.blockedexample.org"};
  std::string control_domain = "www.example.com";

  /// Per-country regimes; empty selects the built-in default mixture
  /// (see effective_countries()).
  std::vector<CountryRegimeSpec> countries;

  /// Built-in scale tiers: "1k", "100k", "1m" (endpoint counts).
  static std::optional<WorldSpec> tier(std::string_view name);
  /// Names of the built-in tiers, smallest first.
  static const std::vector<std::string>& tier_names();

  /// The regimes in effect: `countries`, or the default mixture when empty.
  std::vector<CountryRegimeSpec> effective_countries() const;

  /// Structural digest over every field: the spec's part of a world's
  /// identity (`cen world` prints it).
  std::uint64_t fingerprint() const;
};

/// Canonical JSON rendering, exact numbers and the regimes expanded
/// (effective_countries()); spec_from_json reads it back to the same spec.
std::string to_json(const WorldSpec& spec);
/// The range checks a decoded spec must pass (at least one transit and
/// stub AS, router and template counts >= 1, non-empty domain lists,
/// regimes with a code and a positive weight); false with `error` set.
bool check_spec(const WorldSpec& spec, std::string* error = nullptr);
std::optional<WorldSpec> spec_from_json(std::string_view text, std::string* error = nullptr);

}  // namespace cen::worldgen

// Declarative campaign specification.
//
// A CampaignSpec describes a paper-scale measurement campaign — which
// countries to build, which endpoints/domains to cover, which tool stages
// to run and under what options/faults — as plain data. The campaign
// engine (campaign.hpp) compiles it into a deterministic task DAG
// (CenTrace → CenProbe on discovered device IPs → CenFuzz per blocked
// endpoint → feature extraction/clustering). Specs are constructible
// programmatically or loadable from a JSON file whose schema is the field
// table of report/wire.hpp (docs/CAMPAIGN.md shows it); both paths
// produce identical campaigns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "centrace/centrace.hpp"
#include "longit/evolve.hpp"
#include "netsim/faults.hpp"
#include "scenario/country.hpp"
#include "worldgen/spec.hpp"

namespace cen::campaign {

/// Which tool stages of the DAG run. Disabling an upstream stage also
/// starves its dependents (no trace → no discovered devices → no probe).
struct StageToggles {
  bool trace = true;
  bool probe = true;
  bool fuzz = true;
  /// Ambiguity fingerprinting of blocked endpoints (off by default: it is
  /// the most probe-hungry stage and only pays off when banners are dark).
  bool ambig = false;
  bool cluster = true;
};

struct CampaignSpec {
  std::string name = "campaign";
  /// Countries measured, in order. Empty = all four (paper order).
  std::vector<scenario::Country> countries;
  scenario::Scale scale = scenario::Scale::kSmall;
  /// Scenario construction seed (also the root of every task substream).
  std::uint64_t seed = 7;

  /// Coverage caps, applied with the pipeline's stride sampling
  /// (-1 = no cap).
  int max_endpoints = -1;
  int max_domains = -1;
  int fuzz_max_endpoints = -1;
  int ambig_max_endpoints = -1;

  /// Domain overrides; empty = the scenario's own Citizen-Lab-style lists.
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;

  trace::CenTraceOptions trace;
  /// Degradation-aware tracing: escalate unlocalized blocked verdicts to
  /// multi-vantage boolean tomography (see docs/TOMOGRAPHY.md).
  bool trace_tomography = false;
  /// Vantage budget for the tomography escalation (the scenario's remote
  /// and in-country clients, capped here; the task's own client is always
  /// vantage 0).
  int trace_vantages = 2;
  fuzz::CenFuzzOptions fuzz;
  ambig::AmbigOptions ambig;
  StageToggles stages;

  /// Fault plan installed on every country network before measuring
  /// (default = inert).
  sim::FaultPlan faults;

  /// Synthetic-world campaign: when set, the campaign measures one
  /// worldgen world (generated from this spec + `seed`) instead of the
  /// hand-built country scenarios — `countries` and `scale` are ignored.
  std::optional<worldgen::WorldSpec> world;

  /// Censor-policy evolution (see longit/evolve.hpp): when set, every
  /// site's devices are mutated through `evolution_epoch` churn epochs
  /// after the scenario is built and before anything is measured. The
  /// mutations flow into each site's network fingerprint, so the
  /// incremental cache re-executes exactly the churned sites.
  std::optional<longit::EvolutionPlan> evolution;
  /// Which epoch this campaign measures (0 = untouched baseline); only
  /// read beside an `evolution` plan.
  int evolution_epoch = 0;

  /// Tool tasks per execution batch. The result cache is flushed after
  /// every batch, so this is also the crash-checkpoint granularity.
  int batch_size = 8;

  /// Countries with the empty-means-all default applied.
  std::vector<scenario::Country> effective_countries() const;
};

/// Canonical JSON rendering of a spec (the same schema spec_from_json
/// accepts — load(to_json(s)) == s). Numbers are exact, and the country
/// lists are written expanded (effective_countries()).
std::string to_json(const CampaignSpec& spec);

/// The range checks a decoded or flag-overridden spec must pass (batch_size
/// >= 1, the world's and the plan's own); false with `error` set.
bool check_spec(const CampaignSpec& spec, std::string* error = nullptr);

/// Parse a spec document. On failure returns nullopt and, when `error`
/// is non-null, stores a one-line description naming the offending key.
std::optional<CampaignSpec> spec_from_json(std::string_view text,
                                           std::string* error = nullptr);

}  // namespace cen::campaign

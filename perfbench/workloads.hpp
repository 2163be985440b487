// The campaign benchmark's workloads and the checks every run applies to
// a campaign's output.
//
// A workload is one CampaignSpec plus how it is driven (cold cache or a
// prefilled one). The workload seed becomes the campaign seed, so it
// selects the scenario construction and every task substream; the
// program sees only the spec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "netsim/engine.hpp"

namespace perfbench {

/// Executor workers for every workload: fixed, never "one per hardware
/// thread", so the same workload means the same work on any host.
inline constexpr int kWorkers = 4;

/// Endpoint cap of the country workloads (per country, stride-sampled).
inline constexpr int kCountryEndpointCap = 32;
/// Endpoint cap of the world workload (the world itself is the full tier).
inline constexpr int kWorldEndpointCap = 40;
/// Generation seed of the world workload's fixed 1m-endpoint world.
inline constexpr std::uint64_t kWorldSeed = 11;

struct Workload {
  std::string name;
  /// Re-run against a cache the harness prefilled with the same spec.
  bool warm = false;
  cen::campaign::CampaignSpec spec;
};

/// The named workload at `seed`. `tiny` shrinks it to a few tasks for the
/// self-test. Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed, bool tiny);

/// One measurement site, built through the public scenario builders.
struct Site {
  std::string code;  ///< country code, or the world spec's name
  std::unique_ptr<cen::sim::Network> network;
  cen::sim::NodeId client = cen::sim::kInvalidNode;
  std::string control_domain;
};

/// Build every site of `spec` the way campaign::run does:
/// scenario::make_country per country, or scenario::make_world.
std::vector<Site> build_sites(const cen::campaign::CampaignSpec& spec);

/// Tool tasks the campaign compiled (all stages).
std::size_t total_tasks(const cen::campaign::CampaignResult& result);

/// Tool tasks whose record is missing or does not decode with its stage's
/// decoder. Every task counts as failed when the run is incomplete.
std::size_t failed_tasks(const cen::campaign::CampaignResult& result);

/// Does `doc` decode as a report of `stage` ("trace", "probe", ...)?
bool decodes(std::string_view stage, std::string_view doc);

/// Content hash of the campaign output, to_jsonl() followed by
/// summary_json(): 128 bits from two independent FNV-1a chains, in hex.
std::string output_hash(const cen::campaign::CampaignResult& result);

}  // namespace perfbench

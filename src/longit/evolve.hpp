// Censor-policy evolution between measurement epochs.
//
// The paper's campaigns are snapshots; real censorship regimes drift:
// blocklists grow and shrink, vendors push firmware that changes
// reassembly behaviour, blockpages get rebranded, deployments go dark and
// come back. An EvolutionPlan is a seeded, schedule-driven description of
// that drift. Applied to a freshly-built scenario/worldgen network it
// deterministically mutates the deployed devices for epochs 1..N
// (cumulative replay — epoch state is a pure function of (baseline, plan,
// epoch), never of who asked first), and reports the ground-truth churn so
// the longitudinal differ can be scored against what actually changed.
//
// Layering: this header knows networks and devices, but deliberately not
// campaigns — campaign/spec.hpp includes it (the spec embeds a plan), so
// including campaign headers here would cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/engine.hpp"

namespace cen::longit {

/// Per-epoch, per-device mutation probabilities plus the churn schedule.
/// Epoch 0 is always the untouched baseline.
struct EvolutionPlan {
  /// Root of every churn decision (independent of the measurement seed,
  /// so the same world can be measured under different histories).
  std::uint64_t seed = 1;
  /// First epoch at which churn may occur.
  int start_epoch = 1;
  /// Churn every `period`-th epoch from start_epoch (1 = every epoch).
  int period = 1;

  /// Blocklist growth: add one rule drawn from the pool (skipped when the
  /// draw is already present).
  double rule_add_prob = 0.0;
  /// Blocklist shrinkage: remove one uniformly-chosen rule.
  double rule_remove_prob = 0.0;
  /// Firmware/vendor upgrade: reassembly quirks flip to the strict
  /// profile (checksum + TTL validation, last-wins overlap) — the change
  /// cenambig fingerprinting observes.
  double vendor_upgrade_prob = 0.0;
  /// Blockpage rebranding: a blockpage-injecting device starts serving a
  /// different commercial vendor's page (what blockpage fingerprinting
  /// sees as a vendor change).
  double blockpage_swap_prob = 0.0;
  /// Deployment coverage drift: the device toggles between enforcing and
  /// dark (rules stashed / restored), modelling devices that disappear
  /// from measurement for a while.
  double coverage_drift_prob = 0.0;

  /// Domains rule adds draw from. Empty = the caller's pool (the campaign
  /// passes the site's measured domain lists, so churn is observable).
  std::vector<std::string> rule_pool;

  /// True when no epoch can ever churn (all probabilities zero or the
  /// schedule never fires).
  bool inert() const;
  /// Does this plan churn at `epoch`?
  bool churn_epoch(int epoch) const;

  bool operator==(const EvolutionPlan&) const = default;
};

/// Canonical JSON rendering with exact numbers
/// (evolution_from_json(to_json(p)) == p).
std::string to_json(const EvolutionPlan& plan);
/// The range checks a decoded plan must pass (probabilities in [0, 1],
/// start_epoch >= 0); false with `error` set.
bool check_evolution(const EvolutionPlan& plan, std::string* error = nullptr);
/// Parse a plan object. nullopt + error description on malformed input.
std::optional<EvolutionPlan> evolution_from_json(std::string_view text,
                                                 std::string* error = nullptr);

/// Ground truth: what happened to one device in one churn epoch.
struct DeviceChurn {
  std::string device_id;
  std::vector<std::string> rules_added;
  std::vector<std::string> rules_removed;
  bool vendor_upgraded = false;
  bool blockpage_swapped = false;
  bool coverage_dropped = false;   // went dark (rules stashed)
  bool coverage_restored = false;  // came back

  bool changed() const {
    return !rules_added.empty() || !rules_removed.empty() || vendor_upgraded ||
           blockpage_swapped || coverage_dropped || coverage_restored;
  }
};

/// Ground truth for one churn epoch (devices that changed only).
struct EpochChurn {
  int epoch = 0;
  std::string site;  // the site apply_evolution was called with
  std::vector<DeviceChurn> devices;

  bool any() const { return !devices.empty(); }
};

/// The built-in domain pool used when neither the plan nor the caller
/// supplies one (tests and the cencheck engine).
const std::vector<std::string>& builtin_rule_pool();

/// Mutate `net`'s devices through every churn epoch in [1, epoch],
/// replaying cumulatively from the freshly-built baseline the caller
/// hands in. `site` salts the churn stream so sites evolve independently;
/// `domain_pool` backs rule adds when plan.rule_pool is empty (falls back
/// to builtin_rule_pool() when both are empty). Returns the ground-truth
/// churn of every epoch that changed anything, in epoch order.
///
/// Determinism: each (epoch, site, device) decision draws from its own
/// seeded substream, and devices iterate in deployment order — so the
/// result is a pure function of the arguments, and the device mutations
/// flow into Network::fingerprint() (cache invalidation is automatic).
std::vector<EpochChurn> apply_evolution(sim::Network& net, std::string_view site,
                                        const EvolutionPlan& plan, int epoch,
                                        const std::vector<std::string>& domain_pool = {});

}  // namespace cen::longit

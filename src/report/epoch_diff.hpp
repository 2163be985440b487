// Differential reports between measurement epochs.
//
// The longitudinal service re-measures the same sites every epoch; what
// analysts consume is not the absolute snapshot but the delta: which
// endpoints became blocked, which were unblocked, where the identified
// vendor changed (blockpage rebranding, device replacement), and where
// the blocking hop moved (deployment relocation, route change). EpochDiff
// captures exactly that, computed from per-endpoint state rows in
// task-identity order so the diff is byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cen::report {

/// One measured (site, endpoint, domain, protocol) row at one epoch —
/// the unit the differ compares across epochs.
struct EndpointEpochState {
  std::string site;
  std::string endpoint;  // dotted IPv4
  std::string domain;
  std::string protocol;  // probe_protocol_name
  bool blocked = false;
  std::string blocking_type;  // blocking_type_name; "" when not blocked
  /// Identified vendor: the trace's blockpage fingerprint when present,
  /// else the probe-stage vendor of the blocking hop IP; "" = unknown.
  std::string vendor;
  int blocking_hop_ttl = -1;
  int endpoint_hop_distance = -1;

  /// Cross-epoch join key (everything but the measured outcome).
  std::string key() const {
    return site + ":" + endpoint + ":" + domain + ":" + protocol;
  }

  bool operator==(const EndpointEpochState&) const = default;
};

/// A row blocked in both epochs whose identified vendor changed.
struct VendorChange {
  std::string key;
  std::string from;
  std::string to;

  bool operator==(const VendorChange&) const = default;
};

/// A row blocked in both epochs whose blocking hop moved.
struct LocationMove {
  std::string key;
  int from_ttl = -1;
  int to_ttl = -1;

  int magnitude() const { return from_ttl < to_ttl ? to_ttl - from_ttl : from_ttl - to_ttl; }

  bool operator==(const LocationMove&) const = default;
};

struct EpochDiff {
  int epoch_from = 0;
  int epoch_to = 0;
  /// Blocked at epoch_to but not at epoch_from (rows new at epoch_to and
  /// already blocked count too). States are the epoch_to measurements.
  std::vector<EndpointEpochState> newly_blocked;
  /// Blocked at epoch_from, measured unblocked at epoch_to.
  std::vector<EndpointEpochState> newly_unblocked;
  std::vector<VendorChange> vendor_changes;
  std::vector<LocationMove> location_moves;

  bool any() const {
    return !newly_blocked.empty() || !newly_unblocked.empty() ||
           !vendor_changes.empty() || !location_moves.empty();
  }
  /// Nearest-rank quantile of location-move magnitudes (shared
  /// quantile_index helper; 0 when no moves).
  int move_magnitude_quantile(double f) const;

  bool operator==(const EpochDiff&) const = default;
};

/// Diff two epochs' state rows. `prev`/`next` must be in a deterministic
/// (task-identity) order; outputs follow `next`'s order (then `prev`'s for
/// rows that vanished). Rows missing from `prev` are treated as
/// not-blocked; rows missing from `next` contribute unblocked entries.
EpochDiff diff_epochs(const std::vector<EndpointEpochState>& prev,
                      const std::vector<EndpointEpochState>& next,
                      int epoch_from, int epoch_to);

/// Canonical JSON rendering (epoch_diff_from_json(to_json(d)) == d). The
/// decoder yields nullopt when the text is not an object or one of its
/// lists is not an array of objects.
std::string to_json(const EpochDiff& diff);
std::optional<EpochDiff> epoch_diff_from_json(std::string_view text);

}  // namespace cen::report

#include "report/epoch_diff.hpp"

#include <algorithm>
#include <map>

#include "report/aggregate.hpp"
#include "report/wire.hpp"

namespace cen::report {

int EpochDiff::move_magnitude_quantile(double f) const {
  if (location_moves.empty()) return 0;
  std::vector<int> mags;
  mags.reserve(location_moves.size());
  for (const LocationMove& m : location_moves) mags.push_back(m.magnitude());
  std::sort(mags.begin(), mags.end());
  return mags[quantile_index(f, mags.size())];
}

EpochDiff diff_epochs(const std::vector<EndpointEpochState>& prev,
                      const std::vector<EndpointEpochState>& next,
                      int epoch_from, int epoch_to) {
  EpochDiff diff;
  diff.epoch_from = epoch_from;
  diff.epoch_to = epoch_to;

  std::map<std::string, const EndpointEpochState*, std::less<>> by_key;
  for (const EndpointEpochState& s : prev) by_key.emplace(s.key(), &s);

  std::map<std::string, bool, std::less<>> seen;  // prev keys matched by next
  for (const EndpointEpochState& s : next) {
    const std::string key = s.key();
    auto it = by_key.find(key);
    const EndpointEpochState* old = it == by_key.end() ? nullptr : it->second;
    if (old != nullptr) seen.emplace(key, true);
    const bool was_blocked = old != nullptr && old->blocked;
    if (s.blocked && !was_blocked) diff.newly_blocked.push_back(s);
    if (!s.blocked && was_blocked) diff.newly_unblocked.push_back(s);
    if (s.blocked && was_blocked) {
      if (s.vendor != old->vendor) {
        diff.vendor_changes.push_back({key, old->vendor, s.vendor});
      }
      if (s.blocking_hop_ttl != old->blocking_hop_ttl &&
          s.blocking_hop_ttl >= 0 && old->blocking_hop_ttl >= 0) {
        diff.location_moves.push_back({key, old->blocking_hop_ttl, s.blocking_hop_ttl});
      }
    }
  }
  // Rows that vanished from the measured set while blocked: report as
  // unblocked (identity carried over from the prev-epoch state).
  for (const EndpointEpochState& s : prev) {
    if (!s.blocked || seen.count(s.key())) continue;
    EndpointEpochState gone = s;
    gone.blocked = false;
    gone.blocking_type.clear();
    gone.vendor.clear();
    gone.blocking_hop_ttl = -1;
    diff.newly_unblocked.push_back(std::move(gone));
  }
  return diff;
}

std::string to_json(const EpochDiff& diff) { return wire::encode(diff); }

std::optional<EpochDiff> epoch_diff_from_json(std::string_view text) {
  return wire::decode<EpochDiff>(text);
}

}  // namespace cen::report

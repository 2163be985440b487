// IP → ASN / country metadata, mirroring the paper's dual-source pipeline
// (Maxmind + Routeviews, §4.2 "Limitations"). Two independent route tables
// are kept; lookups merge them longest-prefix-first and record
// disagreements so the validation statistics the paper reports manually
// can be computed automatically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"

namespace cen::geo {

struct AsInfo {
  std::uint32_t asn = 0;
  std::string name;
  std::string country;  // ISO code, e.g. "KZ"

  bool operator==(const AsInfo&) const = default;
};

enum class MetadataSource : std::uint8_t { kMaxmindLike, kRouteviewsLike };

/// Longest-prefix-match route table over two metadata sources.
class IpMetadataDb {
 public:
  /// Register a prefix (base/len) under one source.
  void add_route(net::Ipv4Address base, int prefix_len, AsInfo info, MetadataSource source);
  /// Register under both sources at once (the common case in scenarios).
  void add_route(net::Ipv4Address base, int prefix_len, AsInfo info);

  /// Merged lookup: longest matching prefix across both sources. When the
  /// two sources disagree at the same specificity, the Maxmind-like entry
  /// wins and the disagreement counter is bumped.
  std::optional<AsInfo> lookup(net::Ipv4Address ip) const;
  /// Lookup restricted to a single source.
  std::optional<AsInfo> lookup(net::Ipv4Address ip, MetadataSource source) const;

  /// Count of merged lookups whose sources disagreed (validation signal).
  std::size_t disagreements() const { return disagreements_; }
  std::size_t size() const { return routes_.size(); }

  /// Digest of every route in stored order (base, prefix length, source,
  /// asn, name, country) — a campaign cache-key component, since CenTrace
  /// reports carry the AS labels of the blocking hop.
  std::uint64_t fingerprint() const;

 private:
  struct Route {
    std::uint32_t base = 0;
    std::uint32_t mask = 0;
    int prefix_len = 0;
    AsInfo info;
    MetadataSource source = MetadataSource::kMaxmindLike;
  };
  const Route* best_match(net::Ipv4Address ip, std::optional<MetadataSource> source) const;

  std::vector<Route> routes_;
  mutable std::size_t disagreements_ = 0;
};

}  // namespace cen::geo

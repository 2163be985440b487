#include "geo/asdb.hpp"

#include "core/fingerprint.hpp"

namespace cen::geo {

namespace {
std::uint32_t prefix_mask(int len) {
  if (len <= 0) return 0;
  if (len >= 32) return 0xffffffffu;
  return ~((1u << (32 - len)) - 1);
}
}  // namespace

void IpMetadataDb::add_route(net::Ipv4Address base, int prefix_len, AsInfo info,
                             MetadataSource source) {
  Route r;
  r.mask = prefix_mask(prefix_len);
  r.base = base.value() & r.mask;
  r.prefix_len = prefix_len;
  r.info = std::move(info);
  r.source = source;
  routes_.push_back(std::move(r));
}

void IpMetadataDb::add_route(net::Ipv4Address base, int prefix_len, AsInfo info) {
  add_route(base, prefix_len, info, MetadataSource::kMaxmindLike);
  add_route(base, prefix_len, std::move(info), MetadataSource::kRouteviewsLike);
}

const IpMetadataDb::Route* IpMetadataDb::best_match(
    net::Ipv4Address ip, std::optional<MetadataSource> source) const {
  const Route* best = nullptr;
  for (const Route& r : routes_) {
    if (source && r.source != *source) continue;
    if ((ip.value() & r.mask) != r.base) continue;
    if (best == nullptr || r.prefix_len > best->prefix_len) best = &r;
  }
  return best;
}

std::optional<AsInfo> IpMetadataDb::lookup(net::Ipv4Address ip) const {
  const Route* mm = best_match(ip, MetadataSource::kMaxmindLike);
  const Route* rv = best_match(ip, MetadataSource::kRouteviewsLike);
  if (mm == nullptr && rv == nullptr) return std::nullopt;
  if (mm == nullptr) return rv->info;
  if (rv == nullptr) return mm->info;
  if (!(mm->info == rv->info)) {
    ++disagreements_;
    // Prefer the more specific prefix; ties go to the Maxmind-like source,
    // matching the paper's manual-validation preference order.
    if (rv->prefix_len > mm->prefix_len) return rv->info;
  }
  return mm->info;
}

std::optional<AsInfo> IpMetadataDb::lookup(net::Ipv4Address ip, MetadataSource source) const {
  const Route* r = best_match(ip, source);
  if (r == nullptr) return std::nullopt;
  return r->info;
}

std::uint64_t IpMetadataDb::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(routes_.size()));
  for (const Route& r : routes_) {
    fp.mix(static_cast<std::uint64_t>(r.base));
    fp.mix(static_cast<std::uint64_t>(r.prefix_len));
    fp.mix(static_cast<std::uint64_t>(r.source));
    fp.mix(static_cast<std::uint64_t>(r.info.asn));
    fp.mix(r.info.name);
    fp.mix(r.info.country);
  }
  return fp.digest();
}

}  // namespace cen::geo

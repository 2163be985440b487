// Endpoint (web server) model.
//
// Endpoints are the infrastructural machines CenTrace/CenFuzz probe. Each
// hosts one or more domains over HTTP and TLS. Server parsing behaviour is
// profiled (strict vs lenient, wildcard vhosts/certs or not) because the
// paper's circumvention analysis (§6.3) hinges on endpoints accepting or
// rejecting the same mutated requests that evade censors (400/403/301/505
// responses were all observed).
//
// Endpoints can also carry a *local filter* (an org firewall / NAT in
// front of the host) that reacts to Test-Domain traffic — these produce
// the "At E" blocking cases of Fig. 3, which the paper distinguishes from
// ISP/state censorship.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "censor/rules.hpp"
#include "core/bytes.hpp"
#include "net/ipv4.hpp"

namespace cen::sim {

enum class LocalFilterAction : std::uint8_t { kNone, kDrop, kRst };

struct EndpointProfile {
  std::vector<std::string> hosted_domains;  // first entry = default vhost/cert
  /// TCP ports with a listener; SYNs to other ports are answered with RST
  /// (the behaviour a real infrastructural machine shows to scanners).
  std::vector<std::uint16_t> open_ports{80, 443, 53};
  /// Serve any subdomain of a hosted domain (wildcard vhost + cert).
  bool serves_subdomains = false;
  /// Strict servers reject unregistered methods (501), bad versions (505)
  /// and bare-LF requests (400); lenient servers repair what they can.
  bool strict_http = false;
  /// Respond 403 to Host values not hosted here (vs serving the default vhost).
  bool reject_unknown_host = false;
  /// Serve the default vhost's content (200) for unknown Host values, like
  /// an nginx default server — the behaviour that lets padded-hostname
  /// evasion become full circumvention (§6.3). Ignored if reject_unknown_host.
  bool default_vhost_for_unknown = false;
  /// TLS alert unrecognized_name for unknown SNI (vs default certificate).
  bool reject_unknown_sni = false;
  /// Org-firewall/NAT in front of the endpoint ("At E" blocking).
  LocalFilterAction local_filter = LocalFilterAction::kNone;
  censor::RuleSet local_filter_rules;
  /// Recursive DNS resolver (answers DNS-over-TCP on port 53). Names in
  /// `dns_zone` resolve to the listed address; anything else resolves to a
  /// deterministic synthetic address (public-resolver behaviour).
  bool is_dns_resolver = false;
  std::vector<std::pair<std::string, net::Ipv4Address>> dns_zone;
  /// Disguiser-style control server (§3.2, Jin et al.): answer every
  /// request with exactly this body — any deviation observed by the client
  /// is then attributable to on-path tampering.
  std::optional<std::string> static_payload;
};

/// What the endpoint does in response to a delivered application payload.
struct AppReply {
  enum class Kind { kNone, kData, kRst } kind = Kind::kNone;
  Bytes data;  // response bytes when kind == kData
};

class EndpointHost {
 public:
  explicit EndpointHost(EndpointProfile profile)
      : profile_(std::make_shared<const EndpointProfile>(std::move(profile))) {}
  /// Shared-profile constructor: worldgen endpoints draw from a small set
  /// of profile templates, so a million hosts share a handful of profiles
  /// instead of carrying a deep copy each.
  explicit EndpointHost(std::shared_ptr<const EndpointProfile> profile)
      : profile_(std::move(profile)) {
    if (profile_ == nullptr) profile_ = empty_profile();
  }

  const EndpointProfile& profile() const { return *profile_; }

  /// Does the local filter (if any) engage on this payload?
  LocalFilterAction local_filter_verdict(BytesView payload) const;

  /// Application-layer handling of an HTTP request or TLS ClientHello.
  AppReply handle_payload(BytesView payload) const;

  /// UDP handling: bare DNS queries on port 53 when this is a resolver.
  AppReply handle_udp_payload(BytesView payload, std::uint16_t dst_port) const;

 private:
  AppReply handle_http(std::string_view raw) const;
  AppReply handle_tls(BytesView raw) const;
  AppReply handle_dns(BytesView raw) const;
  /// Is `host` served here (exact, or subdomain when wildcarding)?
  bool hosts(std::string_view host) const;
  /// Shared default-constructed profile backing hosts given a null profile.
  static const std::shared_ptr<const EndpointProfile>& empty_profile();

  std::shared_ptr<const EndpointProfile> profile_;
};

/// The HTML body marker served for a domain; CenFuzz's circumvention check
/// looks for this marker to confirm legitimate content was fetched.
std::string legitimate_content_for(std::string_view domain);

}  // namespace cen::sim

#include "netsim/endpoint.hpp"

#include <algorithm>
#include <initializer_list>

#include "censor/dpi.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"

namespace cen::sim {

namespace {
// The legitimate-content page, around the domain it is served for.
constexpr std::string_view kContentHead = "<html><body>legitimate content for ";
constexpr std::string_view kContentTail = "</body></html>";
}  // namespace

std::string legitimate_content_for(std::string_view domain) {
  return std::string(kContentHead).append(domain).append(kContentTail);
}

const std::shared_ptr<const EndpointProfile>& EndpointHost::empty_profile() {
  static const std::shared_ptr<const EndpointProfile> kEmpty =
      std::make_shared<const EndpointProfile>();
  return kEmpty;
}

bool EndpointHost::hosts(std::string_view host) const {
  for (const std::string& d : profile_->hosted_domains) {
    if (iequals(host, d)) return true;
    if (profile_->serves_subdomains && host.size() > d.size() &&
        host[host.size() - d.size() - 1] == '.' &&
        iequals(host.substr(host.size() - d.size()), d)) {
      return true;
    }
  }
  return false;
}

LocalFilterAction EndpointHost::local_filter_verdict(BytesView payload) const {
  if (profile_->local_filter == LocalFilterAction::kNone || payload.empty()) {
    return LocalFilterAction::kNone;
  }
  bool matches = false;
  if (censor::looks_like_tls(payload)) {
    static const censor::TlsQuirks kLenient;
    const std::optional<std::string_view> sni = censor::dpi_parse_sni(payload, kLenient);
    matches = sni && profile_->local_filter_rules.matches(*sni);
  } else {
    const net::ParsedHttpRequest req = net::parse_http_request(as_text(payload));
    matches = req.host && profile_->local_filter_rules.matches(*req.host);
  }
  return matches ? profile_->local_filter : LocalFilterAction::kNone;
}

namespace {

/// An HTTP reply written straight into the reply bytes: exactly what
/// HttpResponse::make(status, http_reason(status), body).serialize()
/// gives, with the body passed in pieces.
AppReply http_reply(int status, std::initializer_list<std::string_view> body) {
  std::size_t body_size = 0;
  for (std::string_view piece : body) body_size += piece.size();
  const std::string status_text = std::to_string(status);  // fits the small-string buffer
  const std::string length_text = std::to_string(body_size);
  const std::string_view head[] = {"HTTP/1.1 ", status_text, " ", net::http_reason(status),
                                   "\r\nContent-Type: text/html\r\nContent-Length: ",
                                   length_text, "\r\n\r\n"};
  std::size_t size = body_size;
  for (std::string_view piece : head) size += piece.size();

  AppReply r;
  r.kind = AppReply::Kind::kData;
  r.data.reserve(size);
  for (std::string_view piece : head) r.data.insert(r.data.end(), piece.begin(), piece.end());
  for (std::string_view piece : body) r.data.insert(r.data.end(), piece.begin(), piece.end());
  return r;
}

/// A TLS reply: the record bytes, written at their exact size.
AppReply tls_reply(Bytes record) {
  AppReply r;
  r.kind = AppReply::Kind::kData;
  r.data = std::move(record);
  return r;
}

AppReply tls_alert(std::uint8_t description) {
  return tls_reply(net::TlsAlert{description}.serialize());
}

}  // namespace

AppReply EndpointHost::handle_payload(BytesView payload) const {
  if (payload.empty()) return {};
  if (profile_->static_payload) return http_reply(200, {*profile_->static_payload});
  if (censor::looks_like_tls(payload)) return handle_tls(payload);
  if (profile_->is_dns_resolver && net::looks_like_tcp_dns(payload)) {
    return handle_dns(payload);
  }
  return handle_http(as_text(payload));
}

AppReply EndpointHost::handle_udp_payload(BytesView payload, std::uint16_t dst_port) const {
  AppReply r;
  if (!profile_->is_dns_resolver || dst_port != 53 || payload.empty()) return r;
  net::DnsMessage query;
  try {
    query = net::DnsMessage::parse(payload);  // bare DNS, no TCP framing
  } catch (const ParseError&) {
    return r;
  }
  if (query.is_response || query.questions.empty()) return r;
  // Reuse the TCP resolver logic via re-framing, then strip the frame.
  AppReply framed = handle_dns(net::DnsMessage(query).serialize_tcp());
  if (framed.kind != AppReply::Kind::kData) return r;
  ByteReader strip(framed.data);
  strip.skip(2);  // drop the RFC 7766 length prefix
  r.kind = AppReply::Kind::kData;
  r.data = strip.raw(strip.remaining());
  return r;
}

AppReply EndpointHost::handle_dns(BytesView raw) const {
  AppReply r;
  net::DnsMessage query;
  try {
    query = net::DnsMessage::parse_tcp(raw);
  } catch (const ParseError&) {
    return r;  // malformed query: resolver stays silent
  }
  if (query.is_response || query.questions.empty()) return r;
  const std::string& qname = query.questions.front().qname;
  net::Ipv4Address address;
  bool found = false;
  for (const auto& [name, ip] : profile_->dns_zone) {
    if (iequals(name, qname)) {
      address = ip;
      found = true;
      break;
    }
  }
  if (!found) {
    // Public-resolver behaviour: any name resolves, deterministically.
    std::uint64_t h = mix64(std::hash<std::string>{}(ascii_lower(qname)));
    address = net::Ipv4Address(0xc6000000u | static_cast<std::uint32_t>(h & 0xffffff));
  }
  r.kind = AppReply::Kind::kData;
  r.data = net::make_dns_response(query, address).serialize_tcp();
  return r;
}

AppReply EndpointHost::handle_http(std::string_view raw) const {
  net::ParsedHttpRequest req = net::parse_http_request(raw);
  if (!req.parse_ok) return http_reply(400, {"<html>Bad Request</html>"});
  if (profile_->strict_http) {
    if (!req.line_delims_valid) return http_reply(400, {"<html>Bad Request</html>"});
    if (!req.method_valid) return http_reply(501, {"<html>Not Implemented</html>"});
    if (!req.version_valid) return http_reply(505, {"<html>HTTP Version Not Supported</html>"});
  } else {
    // Even lenient servers need a plausible method token.
    if (req.method.empty()) return http_reply(400, {"<html>Bad Request</html>"});
  }
  if (!req.host) {
    // HTTP/1.1 requires Host; lenient servers fall back to the default vhost.
    if (profile_->strict_http) {
      return http_reply(400, {"<html>Bad Request: missing Host</html>"});
    }
    return http_reply(200, {kContentHead, profile_->hosted_domains.front(), kContentTail});
  }
  if (hosts(*req.host)) {
    // A non-root path still serves content (distinct page, same marker).
    return http_reply(200, {kContentHead, *req.host, kContentTail});
  }
  if (profile_->reject_unknown_host) return http_reply(403, {"<html>Forbidden</html>"});
  if (profile_->default_vhost_for_unknown) {
    return http_reply(200, {kContentHead, profile_->hosted_domains.front(), kContentTail});
  }
  // Default-vhost servers answer 301 to their canonical name, a behaviour
  // the paper observed defeating hostname-mutation circumvention.
  return http_reply(301, {"<html>Moved to ", profile_->hosted_domains.front(), "</html>"});
}

AppReply EndpointHost::handle_tls(BytesView raw) const {
  const std::optional<net::ClientHelloView> ch = net::ClientHelloView::parse(raw);
  if (!ch) return tls_alert(net::TlsAlert::kDecodeError);

  // Version negotiation: endpoints here speak TLS 1.0–1.3.
  net::TlsVersion chosen = net::TlsVersion::kTls10;
  bool any = false;
  ch->for_each_version([&](net::TlsVersion v) {
    if (v < net::TlsVersion::kTls10 || v > net::TlsVersion::kTls13) return;
    if (!any || v > chosen) {
      chosen = v;
      any = true;
    }
  });
  if (!any) return tls_alert(net::TlsAlert::kProtocolVersion);

  // Cipher negotiation: endpoints accept the standard suite list except
  // export-grade RC4-MD5, which modern servers refuse.
  const std::vector<net::CipherSuite>& standard = net::standard_cipher_suites();
  std::uint16_t suite = 0;
  for (std::size_t i = 0; i < ch->cipher_suite_count() && suite == 0; ++i) {
    const std::uint16_t cs = ch->cipher_suite(i);
    if (cs == 0x0004) continue;  // TLS_RSA_WITH_RC4_128_MD5
    if (std::any_of(standard.begin(), standard.end(),
                    [&](const net::CipherSuite& s) { return s.code == cs; })) {
      suite = cs;
    }
  }
  if (suite == 0) return tls_alert(net::TlsAlert::kHandshakeFailure);

  const std::optional<std::string_view> sni = ch->sni();
  std::string_view cert_domain = profile_->hosted_domains.front();
  if (sni && !sni->empty()) {
    if (hosts(*sni)) {
      cert_domain = *sni;
    } else if (profile_->reject_unknown_sni) {
      return tls_alert(net::TlsAlert::kUnrecognizedName);
    }
  }
  return tls_reply(net::ServerHello::encode(chosen, suite, cert_domain));
}

}  // namespace cen::sim

#include "cenfuzz/strategies.hpp"

#include <stdexcept>

#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"

namespace cen::fuzz {

namespace {

// ---- domain-label helpers ----------------------------------------------

std::vector<std::string> labels_of(const std::string& domain) { return split(domain, '.'); }

std::string with_tld(const std::string& domain, const std::string& tld) {
  std::vector<std::string> labels = labels_of(domain);
  if (labels.empty()) return domain;
  labels.back() = tld;
  return join(labels, ".");
}

std::string with_subdomain(const std::string& domain, const std::string& sub) {
  std::vector<std::string> labels = labels_of(domain);
  if (labels.size() >= 3) {
    labels.front() = sub;
    return join(labels, ".");
  }
  return sub + "." + domain;
}

const std::vector<std::string>& alt_tlds() {
  static const std::vector<std::string> kTlds = {"net", "org", "co", "io", "ru",
                                                 "cn", "de", "fr", "uk", "biz"};
  return kTlds;
}

const std::vector<std::string>& alt_subdomains() {
  static const std::vector<std::string> kSubs = {"m",   "wiki", "mail", "blog", "news",
                                                 "dev", "api",  "cdn",  "shop", "app"};
  return kSubs;
}

/// (leading, trailing) pad-character counts — 9 permutations (Table 2).
const std::vector<std::pair<int, int>>& pad_combos() {
  static const std::vector<std::pair<int, int>> kPads = {
      {1, 0}, {2, 0}, {0, 1}, {0, 2}, {1, 1}, {2, 2}, {1, 2}, {2, 1}, {3, 3}};
  return kPads;
}

std::string padded(const std::string& s, int lead, int trail) {
  return std::string(static_cast<std::size_t>(lead), '*') + s +
         std::string(static_cast<std::size_t>(trail), '*');
}

// ---- probe builders ------------------------------------------------------

FuzzProbe http_probe(const std::string& strategy, const std::string& permutation,
                     const net::HttpRequest& req) {
  FuzzProbe p;
  p.strategy = strategy;
  p.permutation = permutation;
  p.https = false;
  p.payload = req.serialize_bytes();
  return p;
}

FuzzProbe tls_probe(const std::string& strategy, const std::string& permutation,
                    const net::ClientHello& ch) {
  FuzzProbe p;
  p.strategy = strategy;
  p.permutation = permutation;
  p.https = true;
  p.payload = ch.serialize();
  return p;
}

using ProbeList = std::vector<FuzzProbe>;

// Each generator expands one Table 2 row; its probes carry the row's name
// as their `strategy`.

ProbeList get_word_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const char* method : {"POST", "PUT", "PATCH", "DELETE", "HEAD", ""}) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.method = method;
    out.push_back(http_probe(strategy, method[0] ? method : "<empty>", r));
  }
  return out;
}

ProbeList http_word_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const char* version :
       {"HTTP/1.0", "HTTP/0.9", "HTTP/2", "HTTP/3", "HTTP/9", "HTTP/1.2", "HTTP/ 1.1",
        "HTTP /1.1", "XXXX/1.1", "http/1.1", "HTTPS/1.1", "HTP/1.1", "HTTP1.1",
        "HTTP/11", "HTTP/1.1.1", ""}) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.version = version;
    out.push_back(http_probe(strategy, version[0] ? version : "<empty>", r));
  }
  return out;
}

ProbeList host_word_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const char* word : {"HostHeader: ", "XXXX: ", "Hostname: ", "Host; ", "Host ",
                           "H0st: ", "x-host: "}) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.host_word = word;
    out.push_back(http_probe(strategy, word, r));
  }
  return out;
}

ProbeList path_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const char* path : {"?", "z", "/index.html", "//", "/.", "/abc/def", "*",
                           "/z?q=1"}) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.path = path;
    out.push_back(http_probe(strategy, path, r));
  }
  return out;
}

ProbeList hostname_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  const std::vector<std::pair<std::string, std::string>> perms = {
      {"<empty>", ""},
      {"reversed", reversed(domain)},
      {"doubled", domain + domain},
      {"uppercase", ascii_upper(domain)},
      {"other-domain", "unrelated-example.com"},
  };
  for (const auto& [name, host] : perms) {
    net::HttpRequest r = net::HttpRequest::get(host);
    out.push_back(http_probe(strategy, name, r));
  }
  return out;
}

ProbeList hostname_tld_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& tld : alt_tlds()) {
    net::HttpRequest r = net::HttpRequest::get(with_tld(domain, tld));
    out.push_back(http_probe(strategy, "." + tld, r));
  }
  return out;
}

ProbeList hostname_subdomain_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& sub : alt_subdomains()) {
    net::HttpRequest r = net::HttpRequest::get(with_subdomain(domain, sub));
    out.push_back(http_probe(strategy, sub + ".", r));
  }
  return out;
}

ProbeList header_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  static const char* kNames[] = {"Connection",      "User-Agent", "Accept",
                                 "Accept-Language", "Accept-Encoding", "Referer",
                                 "Cookie",          "X-Forwarded-For"};
  static const char* kValues[] = {"keep-alive", "close", "xxx", "Mozilla/5.0",
                                  "*/*",        "en-US", "1"};
  for (const char* name : kNames) {
    for (const char* value : kValues) {
      net::HttpRequest r = net::HttpRequest::get(domain);
      r.extra_headers.emplace_back(name, value);
      out.push_back(http_probe(strategy, std::string(name) + ": " + value, r));
    }
  }
  // Three malformed header lines (56 + 3 = 59, Table 2).
  for (const char* raw : {"X-:", "   :   ", "NoColonHeader"}) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.extra_headers.emplace_back(raw, "");
    out.push_back(http_probe(strategy, raw, r));
  }
  return out;
}

ProbeList get_word_cap(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& m : case_permutations("GET")) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.method = m;
    out.push_back(http_probe(strategy, m, r));
  }
  return out;
}

ProbeList http_word_cap(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& h : case_permutations("HTTP")) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.version = h + "/1.1";
    out.push_back(http_probe(strategy, r.version, r));
  }
  return out;
}

ProbeList host_word_cap(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& h : case_permutations("Host")) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.host_word = h + ": ";
    out.push_back(http_probe(strategy, r.host_word, r));
  }
  return out;
}

ProbeList get_word_rem(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& m : removal_permutations("GET", 7)) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.method = m;
    out.push_back(http_probe(strategy, m.empty() ? "<empty>" : m, r));
  }
  return out;
}

ProbeList http_word_rem(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& v : removal_permutations("HTTP/1.1", 167)) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.version = v;
    out.push_back(http_probe(strategy, v.empty() ? "<empty>" : v, r));
  }
  return out;
}

ProbeList host_word_rem(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& w : removal_permutations("Host: ", 63)) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.host_word = w;
    out.push_back(http_probe(strategy, w.empty() ? "<empty>" : w, r));
  }
  return out;
}

ProbeList http_delimiter_rem(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  const std::vector<std::pair<std::string, std::string>> perms = {
      {"\\r", "\r"}, {"\\n", "\n"}, {"<empty>", ""}};
  for (const auto& [name, delim] : perms) {
    net::HttpRequest r = net::HttpRequest::get(domain);
    r.request_line_delim = delim;
    out.push_back(http_probe(strategy, name, r));
  }
  return out;
}

ProbeList hostname_pad(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const auto& [lead, trail] : pad_combos()) {
    net::HttpRequest r = net::HttpRequest::get(padded(domain, lead, trail));
    out.push_back(http_probe(strategy, std::to_string(lead) + "*host*" + std::to_string(trail), r));
  }
  return out;
}

// ---- TLS strategies ------------------------------------------------------

const std::vector<net::TlsVersion>& all_versions() {
  static const std::vector<net::TlsVersion> kAll = {
      net::TlsVersion::kTls10, net::TlsVersion::kTls11, net::TlsVersion::kTls12,
      net::TlsVersion::kTls13};
  return kAll;
}

ProbeList min_version_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (net::TlsVersion min : all_versions()) {
    net::ClientHello ch = net::ClientHello::make(domain);
    std::vector<net::TlsVersion> offered;
    for (net::TlsVersion v : all_versions()) {
      if (static_cast<std::uint16_t>(v) >= static_cast<std::uint16_t>(min)) {
        offered.push_back(v);
      }
    }
    ch.legacy_version = min;
    ch.set_supported_versions(offered);
    out.push_back(tls_probe(strategy, net::tls_version_name(min), ch));
  }
  return out;
}

ProbeList max_version_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (net::TlsVersion max : all_versions()) {
    net::ClientHello ch = net::ClientHello::make(domain);
    std::vector<net::TlsVersion> offered;
    for (net::TlsVersion v : all_versions()) {
      if (static_cast<std::uint16_t>(v) <= static_cast<std::uint16_t>(max)) {
        offered.push_back(v);
      }
    }
    ch.legacy_version = std::min(max, net::TlsVersion::kTls12);
    ch.set_supported_versions(offered);
    out.push_back(tls_probe(strategy, net::tls_version_name(max), ch));
  }
  return out;
}

ProbeList cipher_suite_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const net::CipherSuite& cs : net::standard_cipher_suites()) {
    net::ClientHello ch = net::ClientHello::make(domain);
    ch.cipher_suites = {cs.code};
    out.push_back(tls_probe(strategy, std::string(cs.name), ch));
  }
  return out;
}

ProbeList client_certificate_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  const std::vector<std::pair<std::string, std::optional<std::string>>> perms = {
      {"CN=" + domain, domain},
      {"CN=www.test.com", std::string("www.test.com")},
      {"<none>", std::nullopt},
  };
  for (const auto& [name, cn] : perms) {
    net::ClientHello ch = net::ClientHello::make(domain);
    FuzzProbe p = tls_probe(strategy, name, ch);
    p.client_cert_cn = cn;
    out.push_back(std::move(p));
  }
  return out;
}

ProbeList sni_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  {
    net::ClientHello ch = net::ClientHello::make(domain);
    ch.remove_sni();
    out.push_back(tls_probe(strategy, "<omitted>", ch));
  }
  for (const auto& [name, sni] :
       std::vector<std::pair<std::string, std::string>>{{"<empty>", ""},
                                                        {"reversed", reversed(domain)},
                                                        {"doubled", domain + domain}}) {
    net::ClientHello ch = net::ClientHello::make(sni);
    out.push_back(tls_probe(strategy, name, ch));
  }
  return out;
}

ProbeList sni_tld_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& tld : alt_tlds()) {
    net::ClientHello ch = net::ClientHello::make(with_tld(domain, tld));
    out.push_back(tls_probe(strategy, "." + tld, ch));
  }
  return out;
}

ProbeList sni_subdomain_alt(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const std::string& sub : alt_subdomains()) {
    net::ClientHello ch = net::ClientHello::make(with_subdomain(domain, sub));
    out.push_back(tls_probe(strategy, sub + ".", ch));
  }
  return out;
}

ProbeList sni_pad(const std::string& strategy, const std::string& domain) {
  ProbeList out;
  for (const auto& [lead, trail] : pad_combos()) {
    net::ClientHello ch = net::ClientHello::make(padded(domain, lead, trail));
    out.push_back(tls_probe(strategy, std::to_string(lead) + "*sni*" + std::to_string(trail), ch));
  }
  return out;
}

/// Every HTTP (or every TLS) row's probes, in catalogue order.
std::vector<FuzzProbe> catalogue_probes(bool https, const std::string& domain) {
  std::vector<FuzzProbe> out;
  for (const StrategyInfo& info : strategy_catalogue()) {
    if (info.https != https) continue;
    std::vector<FuzzProbe> probes = info.expand(info.name, domain);
    out.insert(out.end(), std::make_move_iterator(probes.begin()),
               std::make_move_iterator(probes.end()));
  }
  return out;
}

}  // namespace

std::vector<std::string> case_permutations(const std::string& word) {
  std::vector<std::string> out;
  std::size_t n = word.size();
  std::size_t combos = static_cast<std::size_t>(1) << n;
  out.reserve(combos);
  for (std::size_t mask = 0; mask < combos; ++mask) {
    std::string s = word;
    for (std::size_t i = 0; i < n; ++i) {
      char c = s[i];
      s[i] = (mask >> i & 1) ? static_cast<char>(std::toupper(c))
                             : static_cast<char>(std::tolower(c));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> removal_permutations(const std::string& word, std::size_t limit) {
  std::vector<std::string> out;
  std::size_t n = word.size();
  // Enumerate deletion-index subsets by increasing size, each size in
  // lexicographic combination order.
  for (std::size_t k = 1; k <= n && out.size() < limit; ++k) {
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    for (;;) {
      std::string s;
      std::size_t next = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (next < k && idx[next] == i) {
          ++next;
          continue;
        }
        s.push_back(word[i]);
      }
      out.push_back(std::move(s));
      if (out.size() >= limit) break;
      // Advance the combination.
      std::size_t i = k;
      while (i-- > 0) {
        if (idx[i] != i + n - k) {
          ++idx[i];
          for (std::size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
          break;
        }
        if (i == 0) {
          i = static_cast<std::size_t>(-1);
          break;
        }
      }
      if (i == static_cast<std::size_t>(-1)) break;
    }
  }
  return out;
}

const std::vector<StrategyInfo>& strategy_catalogue() {
  static const std::vector<StrategyInfo> kCatalogue = {
      {"Alternate", "Get Word Alt.", 6, false, get_word_alt},
      {"Alternate", "Http Word Alt.", 16, false, http_word_alt},
      {"Alternate", "Host Word Alt.", 7, false, host_word_alt},
      {"Alternate", "Path Alt.", 8, false, path_alt},
      {"Alternate", "Hostname Alt.", 5, false, hostname_alt},
      {"Alternate", "Hostname TLD Alt.", 10, false, hostname_tld_alt},
      {"Alternate", "Host. Subdomain Alt.", 10, false, hostname_subdomain_alt},
      {"Alternate", "Header Alt.", 59, false, header_alt},
      {"Capitalize", "Get Word Cap.", 8, false, get_word_cap},
      {"Capitalize", "Http Word Cap.", 16, false, http_word_cap},
      {"Capitalize", "Host Word Cap.", 16, false, host_word_cap},
      {"Remove", "Get Word Rem.", 7, false, get_word_rem},
      {"Remove", "Http Word Rem.", 167, false, http_word_rem},
      {"Remove", "Host Word Rem.", 63, false, host_word_rem},
      {"Remove", "Http Delimiter Rem.", 3, false, http_delimiter_rem},
      {"Pad", "Hostname Pad.", 9, false, hostname_pad},
      {"Alternate", "Min Version Alt.", 4, true, min_version_alt},
      {"Alternate", "Max Version Alt.", 4, true, max_version_alt},
      {"Alternate", "CipherSuite Alt.", 25, true, cipher_suite_alt},
      {"Alternate", "Client Certificate Alt.", 3, true, client_certificate_alt},
      {"Alternate", "SNI Alt.", 4, true, sni_alt},
      {"Alternate", "SNI TLD Alt.", 10, true, sni_tld_alt},
      {"Alternate", "SNI Subdomain Alt.", 10, true, sni_subdomain_alt},
      {"Pad", "SNI Pad.", 9, true, sni_pad},
  };
  return kCatalogue;
}

std::vector<FuzzProbe> probes_for_strategy(const std::string& name,
                                           const std::string& domain) {
  for (const StrategyInfo& info : strategy_catalogue()) {
    if (info.name == name) return info.expand(info.name, domain);
  }
  throw std::invalid_argument("unknown strategy: " + name);
}

std::vector<FuzzProbe> http_probes(const std::string& domain) {
  return catalogue_probes(false, domain);
}

std::vector<FuzzProbe> tls_probes(const std::string& domain) {
  return catalogue_probes(true, domain);
}

ProbeSet ProbeSet::build(const std::string& domain) {
  return {domain, http_probes(domain), tls_probes(domain)};
}

FuzzProbe normal_http_probe(const std::string& domain) {
  return http_probe("Normal", "GET", net::HttpRequest::get(domain));
}

FuzzProbe normal_tls_probe(const std::string& domain) {
  return tls_probe("Normal", "ClientHello", net::ClientHello::make(domain));
}

}  // namespace cen::fuzz

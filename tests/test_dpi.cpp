#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cenfuzz/strategies.hpp"
#include "censor/dpi.hpp"
#include "censor/vendors.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "tls_corpus.hpp"

using namespace cen;
using namespace cen::censor;

namespace {
std::string get_for(const std::string& host) {
  return net::HttpRequest::get(host).serialize();
}
}  // namespace

TEST(DpiHttp, NormalRequestExtractsHostAndPath) {
  HttpQuirks q;
  const std::string raw = get_for("www.blocked.example");
  auto result = dpi_parse_http(raw, q);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->host, "www.blocked.example");
  EXPECT_EQ(result->path, "/");
}

TEST(DpiHttp, MethodAllowlistDisengages) {
  HttpQuirks q;
  q.method_allowlist = {"GET", "POST"};
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.method = "PATCH";
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
  r.method = "POST";
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
  r.method = "";
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, MethodCaseSensitivity) {
  HttpQuirks q;
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.method = "GeT";
  q.method_case_insensitive = true;
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
  q.method_case_insensitive = false;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, EmptyAllowlistEngagesAnyToken) {
  HttpQuirks q;
  q.method_allowlist.clear();
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.method = "ZZZZ";
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, VersionCheckNone) {
  HttpQuirks q;
  q.version_check = VersionCheck::kNone;
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.version = "GIBBERISH";
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, VersionCheckPrefix) {
  HttpQuirks q;
  q.version_check = VersionCheck::kPrefixHttp;
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.version = "HTTP/9";  // invalid version, valid prefix: still inspected
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
  r.version = "HTP/1.1";  // broken prefix: disengages
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
  r.version = "http/1.1";
  q.version_prefix_case_insensitive = true;
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
  q.version_prefix_case_insensitive = false;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, VersionCheckValidOnly) {
  HttpQuirks q;
  q.version_check = VersionCheck::kValidOnly;
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.version = "HTTP/9";
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
  r.version = "HTTP/1.0";
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
}

TEST(DpiHttp, HostWordChecks) {
  net::HttpRequest r = net::HttpRequest::get("x.com");
  HttpQuirks q;

  r.host_word = "hOsT: ";
  q.host_word_check = HostWordCheck::kExactCaseInsensitive;
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));
  q.host_word_check = HostWordCheck::kExactCaseSensitive;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));

  r.host_word = "HostHeader: ";
  q.host_word_check = HostWordCheck::kExactCaseInsensitive;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
  q.host_word_check = HostWordCheck::kContainsHost;
  EXPECT_TRUE(dpi_parse_http(r.serialize(), q));

  r.host_word = "ost: ";  // Host Word Remove: evades every check mode
  for (HostWordCheck check : {HostWordCheck::kExactCaseInsensitive,
                              HostWordCheck::kExactCaseSensitive,
                              HostWordCheck::kContainsHost}) {
    q.host_word_check = check;
    EXPECT_FALSE(dpi_parse_http(r.serialize(), q));
  }
}

TEST(DpiHttp, CrlfDiscipline) {
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.request_line_delim = "\n";  // bare LF
  HttpQuirks strict;
  strict.requires_crlf = true;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), strict));
  HttpQuirks tolerant;
  tolerant.requires_crlf = false;
  EXPECT_TRUE(dpi_parse_http(r.serialize(), tolerant));
}

TEST(DpiHttp, BareCrDelimiter) {
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.request_line_delim = "\r";
  HttpQuirks strict;
  EXPECT_FALSE(dpi_parse_http(r.serialize(), strict));
}

TEST(DpiHttp, MissingHostHeaderDisengages) {
  HttpQuirks q;
  EXPECT_FALSE(dpi_parse_http("GET / HTTP/1.1\r\n\r\n", q));
}

TEST(DpiHttp, ExtraHeadersIgnored) {
  // §6.3: adding headers (even invalid ones) never evades.
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.extra_headers.emplace_back("NoColonHeader", "");
  r.extra_headers.emplace_back("Connection", "keep-alive");
  HttpQuirks q;
  const std::string raw = r.serialize();
  auto result = dpi_parse_http(raw, q);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->host, "x.com");
}

TEST(DpiHttp, PathReported) {
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.path = "?";
  HttpQuirks q;
  const std::string raw = r.serialize();
  auto result = dpi_parse_http(raw, q);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->path, "?");
}

TEST(DpiTls, NormalHelloExtractsSni) {
  TlsQuirks q;
  Bytes wire = net::ClientHello::make("www.blocked.example").serialize();
  auto sni = dpi_parse_sni(wire, q);
  ASSERT_TRUE(sni);
  EXPECT_EQ(*sni, "www.blocked.example");
}

TEST(DpiTls, MalformedDisengages) {
  TlsQuirks q;
  EXPECT_FALSE(dpi_parse_sni(Bytes{0x16, 0x03, 0x01}, q));
  EXPECT_FALSE(dpi_parse_sni(to_bytes("GET / HTTP/1.1\r\n"), q));
}

TEST(DpiTls, NoSniNoTrigger) {
  TlsQuirks q;
  net::ClientHello ch = net::ClientHello::make("x.com");
  ch.remove_sni();
  EXPECT_FALSE(dpi_parse_sni(ch.serialize(), q));
}

TEST(DpiTls, VersionTolerance) {
  TlsQuirks q;
  q.parses_versions = {net::TlsVersion::kTls10, net::TlsVersion::kTls11,
                       net::TlsVersion::kTls12};
  // A hello advertising only TLS 1.3 is invisible to this parser.
  net::ClientHello ch = net::ClientHello::make("x.com");
  ch.legacy_version = net::TlsVersion::kTls13;
  ch.set_supported_versions({net::TlsVersion::kTls13});
  EXPECT_FALSE(dpi_parse_sni(ch.serialize(), q));
  // Offering 1.2 alongside re-engages it.
  ch.set_supported_versions({net::TlsVersion::kTls13, net::TlsVersion::kTls12});
  EXPECT_TRUE(dpi_parse_sni(ch.serialize(), q));
}

TEST(DpiTls, BlindCipherSuite) {
  TlsQuirks q;
  q.blind_cipher_suites = {0x0005};
  net::ClientHello ch = net::ClientHello::make("x.com");
  ch.cipher_suites = {0x0005};
  EXPECT_FALSE(dpi_parse_sni(ch.serialize(), q));
  // Blindness only applies to a single-suite offer.
  ch.cipher_suites = {0x0005, 0x1301};
  EXPECT_TRUE(dpi_parse_sni(ch.serialize(), q));
}

TEST(DpiTls, PaddingConfusion) {
  TlsQuirks q;
  q.breaks_on_padding_extension = true;
  net::ClientHello ch = net::ClientHello::make("x.com");
  EXPECT_TRUE(dpi_parse_sni(ch.serialize(), q));
  ch.add_padding(16);
  EXPECT_FALSE(dpi_parse_sni(ch.serialize(), q));
}

TEST(LooksLikeTls, Classification) {
  EXPECT_TRUE(looks_like_tls(net::ClientHello::make("x").serialize()));
  EXPECT_FALSE(looks_like_tls(to_bytes("GET / HTTP/1.1\r\n")));
  EXPECT_FALSE(looks_like_tls(Bytes{}));
}

// Property sweep: HTTP method tokens across allowlist configurations.
struct MethodCase {
  const char* method;
  bool engages_default;  // default allowlist GET/POST/PUT/HEAD/DELETE/OPTIONS
};

class MethodEngagement : public ::testing::TestWithParam<MethodCase> {};

TEST_P(MethodEngagement, DefaultAllowlist) {
  HttpQuirks q;
  net::HttpRequest r = net::HttpRequest::get("x.com");
  r.method = GetParam().method;
  EXPECT_EQ(dpi_parse_http(r.serialize(), q).has_value(), GetParam().engages_default)
      << GetParam().method;
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodEngagement,
                         ::testing::Values(MethodCase{"GET", true}, MethodCase{"POST", true},
                                           MethodCase{"PUT", true}, MethodCase{"HEAD", true},
                                           MethodCase{"DELETE", true},
                                           MethodCase{"OPTIONS", true},
                                           MethodCase{"PATCH", false},
                                           MethodCase{"", false}, MethodCase{"GE", false},
                                           MethodCase{"XXXX", false},
                                           MethodCase{"get", true}));

// ------------------------------------------- line-split reference parser
//
// The HTTP DPI parse as it was written before it walked the payload in
// place: split into a vector of owned lines, then scan. Kept verbatim as
// the reference the parser must agree with on every probe payload, on
// byte mutations of them, and under every vendor's HTTP quirks.

namespace {

std::vector<std::string> reference_dpi_lines(std::string_view raw, bool requires_crlf) {
  std::vector<std::string> lines;
  if (requires_crlf) {
    for (std::string& piece : split(raw, std::string_view("\r\n"))) {
      lines.push_back(std::move(piece));
    }
  } else {
    for (std::string& piece : split(raw, '\n')) {
      if (!piece.empty() && piece.back() == '\r') piece.pop_back();
      lines.push_back(std::move(piece));
    }
  }
  return lines;
}

bool reference_method_engages(std::string_view method, const HttpQuirks& q) {
  if (q.method_allowlist.empty()) return !method.empty();
  for (const std::string& allowed : q.method_allowlist) {
    bool match = q.method_case_insensitive ? iequals(method, allowed) : method == allowed;
    if (match) return true;
  }
  return false;
}

bool reference_version_engages(std::string_view version, const HttpQuirks& q) {
  switch (q.version_check) {
    case VersionCheck::kNone:
      return true;
    case VersionCheck::kPrefixHttp: {
      if (version.size() < 5) return false;
      std::string_view prefix = version.substr(0, 5);
      return q.version_prefix_case_insensitive ? iequals(prefix, "HTTP/") : prefix == "HTTP/";
    }
    case VersionCheck::kValidOnly:
      return version == "HTTP/1.1" || version == "HTTP/1.0";
  }
  return false;
}

bool reference_host_word_engages(std::string_view name, const HttpQuirks& q) {
  switch (q.host_word_check) {
    case HostWordCheck::kExactCaseInsensitive:
      return iequals(name, "Host");
    case HostWordCheck::kExactCaseSensitive:
      return name == "Host";
    case HostWordCheck::kContainsHost:
      return ascii_lower(name).find("host") != std::string::npos;
  }
  return false;
}

struct ReferenceDpiResult {
  std::string host;
  std::string path;
};

std::optional<ReferenceDpiResult> reference_dpi_parse_http(std::string_view raw,
                                                           const HttpQuirks& q) {
  std::vector<std::string> lines = reference_dpi_lines(raw, q.requires_crlf);
  if (lines.size() < 2) return std::nullopt;
  if (q.requires_crlf) {
    for (const std::string& line : lines) {
      if (line.find('\n') != std::string::npos || line.find('\r') != std::string::npos) {
        return std::nullopt;
      }
    }
  }
  const std::string& request_line = lines[0];
  std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) return std::nullopt;
  std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return std::nullopt;
  std::string_view method = std::string_view(request_line).substr(0, sp1);
  std::string_view path = std::string_view(request_line).substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = trim(std::string_view(request_line).substr(sp2 + 1));
  if (!reference_method_engages(method, q)) return std::nullopt;
  if (!reference_version_engages(version, q)) return std::nullopt;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) break;
    std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string_view name = trim(std::string_view(line).substr(0, colon));
    if (!reference_host_word_engages(name, q)) continue;
    ReferenceDpiResult result;
    result.host = std::string(trim(std::string_view(line).substr(colon + 1)));
    result.path = std::string(path);
    return result;
  }
  return std::nullopt;
}

/// Probe payloads plus seeded byte mutations of each: truncations,
/// inserted "\r", "\n" and "\r\n", and deleted delimiter bytes.
std::vector<std::string> dpi_corpus() {
  std::vector<std::string> base;
  for (const char* domain : {"www.blocked.example", "WwW.BlOcKeD.ExAmPlE", "www.example.com."}) {
    base.push_back(to_string(fuzz::normal_http_probe(domain).payload));
    for (const fuzz::FuzzProbe& p : fuzz::http_probes(domain)) base.push_back(to_string(p.payload));
  }
  std::vector<std::string> corpus = base;
  Rng rng(0x5d1f);
  for (const std::string& s : base) {
    for (int k = 0; k < 3; ++k) corpus.push_back(s.substr(0, rng.uniform(s.size() + 1)));
    for (const char* ins : {"\r", "\n", "\r\n"}) {
      std::string m = s;
      m.insert(rng.uniform(m.size() + 1), ins);
      corpus.push_back(std::move(m));
    }
    std::vector<std::size_t> delims;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '\r' || s[i] == '\n' || s[i] == ' ' || s[i] == ':') delims.push_back(i);
    }
    for (int k = 0; k < 2 && !delims.empty(); ++k) {
      std::string m = s;
      m.erase(delims[rng.uniform(delims.size())], 1);
      corpus.push_back(std::move(m));
    }
  }
  // Every truncation of the Normal request.
  for (std::size_t n = 0; n <= base.front().size(); ++n) corpus.push_back(base.front().substr(0, n));
  return corpus;
}

}  // namespace

TEST(DpiHttp, MatchesLineSplitReference) {
  std::vector<HttpQuirks> quirks;
  for (const std::string& vendor : known_vendors()) {
    HttpQuirks q = make_vendor_device(vendor, "ref").http_quirks;
    for (bool crlf : {true, false}) {
      q.requires_crlf = crlf;
      quirks.push_back(q);
    }
  }
  std::size_t engaged = 0;
  std::size_t checked = 0;
  for (const std::string& raw : dpi_corpus()) {
    for (const HttpQuirks& q : quirks) {
      const auto expected = reference_dpi_parse_http(raw, q);
      const auto actual = dpi_parse_http(raw, q);
      ASSERT_EQ(expected.has_value(), actual.has_value()) << testing::PrintToString(raw);
      if (expected) {
        EXPECT_EQ(expected->host, actual->host) << testing::PrintToString(raw);
        EXPECT_EQ(expected->path, actual->path) << testing::PrintToString(raw);
        ++engaged;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000u);
  EXPECT_GT(engaged, checked / 10);  // the corpus exercises both outcomes
  EXPECT_LT(engaged, checked - checked / 10);
}

// ------------------------------------------------ DOM-based reference SNI
//
// The TLS DPI parse as it was written before it read the hello in place:
// parse the record into a ClientHello with owned extensions, then ask it
// for its versions and SNI. The parse and the two accessors are copied
// here verbatim too, so the reference stands apart from net/tls.cpp.

namespace {

struct ReferenceHello {
  net::TlsVersion legacy_version = net::TlsVersion::kTls12;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<net::TlsExtension> extensions;

  static ReferenceHello parse(BytesView bytes) {
    ByteReader r(bytes);
    std::uint8_t record_type = r.u8();
    if (record_type != 22) throw ParseError("not a TLS handshake record");
    ReferenceHello ch;
    (void)r.u16();
    std::uint16_t record_len = r.u16();
    if (record_len != r.remaining()) throw ParseError("TLS record length mismatch");
    std::uint8_t hs_type = r.u8();
    if (hs_type != 1) throw ParseError("not a ClientHello");
    std::uint32_t hs_len = r.u24();
    if (hs_len != r.remaining()) throw ParseError("handshake length mismatch");
    ch.legacy_version = static_cast<net::TlsVersion>(r.u16());
    (void)r.raw(32);
    std::uint8_t sid_len = r.u8();
    (void)r.raw(sid_len);
    std::uint16_t cs_len = r.u16();
    if (cs_len % 2 != 0) throw ParseError("odd cipher-suite list length");
    for (int i = 0; i < cs_len; i += 2) ch.cipher_suites.push_back(r.u16());
    std::uint8_t cm_len = r.u8();
    (void)r.raw(cm_len);
    if (r.remaining() > 0) {
      std::uint16_t ext_len = r.u16();
      if (ext_len != r.remaining()) throw ParseError("extensions length mismatch");
      while (r.remaining() > 0) {
        net::TlsExtension ext;
        ext.type = r.u16();
        std::uint16_t len = r.u16();
        ext.data = r.raw(len);
        ch.extensions.push_back(std::move(ext));
      }
    }
    return ch;
  }

  std::optional<std::string> sni() const {
    for (const net::TlsExtension& ext : extensions) {
      if (ext.type != net::TlsExtensionType::kServerName) continue;
      try {
        ByteReader r(ext.data);
        std::uint16_t list_len = r.u16();
        (void)list_len;
        std::uint8_t name_type = r.u8();
        if (name_type != 0) return std::nullopt;
        std::uint16_t len = r.u16();
        return r.str(len);
      } catch (const ParseError&) {
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::vector<net::TlsVersion> supported_versions() const {
    for (const net::TlsExtension& ext : extensions) {
      if (ext.type != net::TlsExtensionType::kSupportedVersions) continue;
      try {
        ByteReader r(ext.data);
        std::uint8_t len = r.u8();
        if (len % 2 != 0 || len != r.remaining()) break;
        std::vector<net::TlsVersion> out;
        while (r.remaining() > 0) out.push_back(static_cast<net::TlsVersion>(r.u16()));
        return out;
      } catch (const ParseError&) {
        break;
      }
    }
    return {legacy_version};
  }
};

std::optional<std::string> reference_dpi_parse_sni(BytesView raw, const TlsQuirks& q) {
  ReferenceHello ch;
  try {
    ch = ReferenceHello::parse(raw);
  } catch (const ParseError&) {
    return std::nullopt;
  }

  std::vector<net::TlsVersion> advertised = ch.supported_versions();
  advertised.push_back(ch.legacy_version);
  bool version_ok = std::any_of(advertised.begin(), advertised.end(), [&](net::TlsVersion v) {
    return std::find(q.parses_versions.begin(), q.parses_versions.end(), v) !=
           q.parses_versions.end();
  });
  if (!version_ok) return std::nullopt;

  if (ch.cipher_suites.size() == 1 && !q.blind_cipher_suites.empty()) {
    if (std::find(q.blind_cipher_suites.begin(), q.blind_cipher_suites.end(),
                  ch.cipher_suites[0]) != q.blind_cipher_suites.end()) {
      return std::nullopt;
    }
  }

  if (q.breaks_on_padding_extension) {
    for (const net::TlsExtension& ext : ch.extensions) {
      if (ext.type == net::TlsExtensionType::kPadding) return std::nullopt;
    }
  }

  return ch.sni();
}

}  // namespace

TEST(DpiTls, MatchesDomReference) {
  std::vector<TlsQuirks> quirks = {TlsQuirks{}};
  for (const std::string& vendor : known_vendors()) {
    quirks.push_back(make_vendor_device(vendor, "ref").tls_quirks);
  }
  TlsQuirks picky;
  picky.parses_versions = {net::TlsVersion::kTls13};
  picky.blind_cipher_suites = {0x0005, 0xeeee};
  picky.breaks_on_padding_extension = true;
  quirks.push_back(picky);
  TlsQuirks deaf;
  deaf.parses_versions.clear();
  quirks.push_back(deaf);

  std::size_t engaged = 0;
  std::size_t checked = 0;
  for (const Bytes& raw : testing_tls::hello_corpus()) {
    for (const TlsQuirks& q : quirks) {
      const auto expected = reference_dpi_parse_sni(raw, q);
      const auto actual = dpi_parse_sni(raw, q);
      ASSERT_EQ(expected.has_value(), actual.has_value()) << to_hex(raw);
      if (expected) {
        EXPECT_EQ(*expected, *actual) << to_hex(raw);
        ++engaged;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 10000u);
  EXPECT_GT(engaged, checked / 10);  // the corpus exercises both outcomes
  EXPECT_LT(engaged, checked - checked / 10);
}

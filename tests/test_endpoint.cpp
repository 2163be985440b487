#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "netsim/endpoint.hpp"
#include "tls_corpus.hpp"

using namespace cen;
using namespace cen::sim;

namespace {

EndpointHost make_host(EndpointProfile profile) {
  return EndpointHost(std::move(profile));
}

int http_status(const AppReply& reply) {
  EXPECT_EQ(reply.kind, AppReply::Kind::kData);
  auto resp = net::HttpResponse::parse(to_string(reply.data));
  EXPECT_TRUE(resp);
  return resp ? resp->status : -1;
}

Bytes get_bytes(const std::string& host) {
  return net::HttpRequest::get(host).serialize_bytes();
}

}  // namespace

TEST(Endpoint, ServesHostedDomain) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  EndpointHost host = make_host(p);
  AppReply reply = host.handle_payload(get_bytes("www.example.org"));
  EXPECT_EQ(http_status(reply), 200);
  EXPECT_NE(to_string(reply.data).find("legitimate content for www.example.org"),
            std::string::npos);
}

TEST(Endpoint, SubdomainWildcard) {
  EndpointProfile p;
  p.hosted_domains = {"example.org"};
  p.serves_subdomains = true;
  EXPECT_EQ(http_status(make_host(p).handle_payload(get_bytes("wiki.example.org"))), 200);
  p.serves_subdomains = false;
  EXPECT_NE(http_status(make_host(p).handle_payload(get_bytes("wiki.example.org"))), 200);
}

TEST(Endpoint, UnknownHostPolicies) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  p.reject_unknown_host = true;
  EXPECT_EQ(http_status(make_host(p).handle_payload(get_bytes("other.com"))), 403);

  p.reject_unknown_host = false;
  p.default_vhost_for_unknown = true;
  AppReply reply = make_host(p).handle_payload(get_bytes("**www.example.org*"));
  EXPECT_EQ(http_status(reply), 200);  // default-server behaviour

  p.default_vhost_for_unknown = false;
  EXPECT_EQ(http_status(make_host(p).handle_payload(get_bytes("other.com"))), 301);
}

TEST(Endpoint, StrictServerRejectsMalformed) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  p.strict_http = true;
  EndpointHost host = make_host(p);

  net::HttpRequest bad_method = net::HttpRequest::get("www.example.org");
  bad_method.method = "GE";
  EXPECT_EQ(http_status(host.handle_payload(bad_method.serialize_bytes())), 501);

  net::HttpRequest bad_version = net::HttpRequest::get("www.example.org");
  bad_version.version = "HTTP/9";
  EXPECT_EQ(http_status(host.handle_payload(bad_version.serialize_bytes())), 505);

  net::HttpRequest bare_lf = net::HttpRequest::get("www.example.org");
  bare_lf.request_line_delim = "\n";
  EXPECT_EQ(http_status(host.handle_payload(bare_lf.serialize_bytes())), 400);

  net::HttpRequest no_host = net::HttpRequest::get("www.example.org");
  no_host.host_word = "ost: ";
  EXPECT_EQ(http_status(host.handle_payload(no_host.serialize_bytes())), 400);
}

TEST(Endpoint, LenientServerRepairs) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  EndpointHost host = make_host(p);

  net::HttpRequest bad_method = net::HttpRequest::get("www.example.org");
  bad_method.method = "GE";
  EXPECT_EQ(http_status(host.handle_payload(bad_method.serialize_bytes())), 200);

  net::HttpRequest no_host = net::HttpRequest::get("www.example.org");
  no_host.host_word = "ost: ";
  EXPECT_EQ(http_status(host.handle_payload(no_host.serialize_bytes())), 200);
}

TEST(Endpoint, GarbageGets400) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  EXPECT_EQ(http_status(make_host(p).handle_payload(to_bytes("garbage\r\n\r\n"))), 400);
}

TEST(Endpoint, EmptyPayloadIgnored) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  EXPECT_EQ(make_host(p).handle_payload({}).kind, AppReply::Kind::kNone);
}

TEST(Endpoint, TlsHandshakeServesCertificate) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  EndpointHost host = make_host(p);
  AppReply reply = host.handle_payload(net::ClientHello::make("www.example.org").serialize());
  auto sh = net::ServerHello::parse(reply.data);
  ASSERT_TRUE(sh);
  EXPECT_EQ(sh->certificate_domain, "www.example.org");
  EXPECT_EQ(sh->version, net::TlsVersion::kTls13);
}

TEST(Endpoint, TlsUnknownSniPolicies) {
  EndpointProfile p;
  p.hosted_domains = {"www.example.org"};
  p.reject_unknown_sni = true;
  AppReply reply =
      make_host(p).handle_payload(net::ClientHello::make("other.com").serialize());
  auto alert = net::TlsAlert::parse(reply.data);
  ASSERT_TRUE(alert);
  EXPECT_EQ(alert->description, net::TlsAlert::kUnrecognizedName);

  p.reject_unknown_sni = false;
  reply = make_host(p).handle_payload(net::ClientHello::make("other.com").serialize());
  auto sh = net::ServerHello::parse(reply.data);
  ASSERT_TRUE(sh);
  EXPECT_EQ(sh->certificate_domain, "www.example.org");  // default certificate
}

TEST(Endpoint, TlsMalformedHelloAlerts) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  AppReply reply = make_host(p).handle_payload(Bytes{0x16, 0x03, 0x01, 0x00});
  auto alert = net::TlsAlert::parse(reply.data);
  ASSERT_TRUE(alert);
  EXPECT_EQ(alert->description, net::TlsAlert::kDecodeError);
}

TEST(Endpoint, TlsRc4Md5OnlyRefused) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  net::ClientHello ch = net::ClientHello::make("a.com");
  ch.cipher_suites = {0x0004};  // RC4-MD5 only
  AppReply reply = make_host(p).handle_payload(ch.serialize());
  auto alert = net::TlsAlert::parse(reply.data);
  ASSERT_TRUE(alert);
  EXPECT_EQ(alert->description, net::TlsAlert::kHandshakeFailure);
}

TEST(Endpoint, TlsVersionNegotiationPicksHighest) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  net::ClientHello ch = net::ClientHello::make("a.com");
  ch.set_supported_versions({net::TlsVersion::kTls11, net::TlsVersion::kTls12});
  auto sh = net::ServerHello::parse(make_host(p).handle_payload(ch.serialize()).data);
  ASSERT_TRUE(sh);
  EXPECT_EQ(sh->version, net::TlsVersion::kTls12);
}

TEST(Endpoint, LocalFilterHttp) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  p.local_filter = LocalFilterAction::kDrop;
  p.local_filter_rules.add("blocked.example");
  EndpointHost host = make_host(p);
  EXPECT_EQ(host.local_filter_verdict(get_bytes("www.blocked.example")),
            LocalFilterAction::kDrop);
  EXPECT_EQ(host.local_filter_verdict(get_bytes("www.benign.example")),
            LocalFilterAction::kNone);
}

TEST(Endpoint, LocalFilterTls) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  p.local_filter = LocalFilterAction::kRst;
  p.local_filter_rules.add("blocked.example");
  EndpointHost host = make_host(p);
  EXPECT_EQ(host.local_filter_verdict(
                net::ClientHello::make("www.blocked.example").serialize()),
            LocalFilterAction::kRst);
}

TEST(Endpoint, NoLocalFilterAlwaysNone) {
  EndpointProfile p;
  p.hosted_domains = {"a.com"};
  EXPECT_EQ(make_host(p).local_filter_verdict(get_bytes("anything.example")),
            LocalFilterAction::kNone);
}

// ------------------------------------------------------ reply-byte pins
//
// Every handle_http reply path, with the exact bytes the endpoint must
// send: what HttpResponse::make(status, http_reason(status), body)
// serializes. The same replies, with seeded mutations, form the corpus
// that pins what HttpResponse::parse makes of reply-shaped bytes.

namespace {

struct ReplyPath {
  const char* name;
  EndpointProfile profile;
  std::string request;
  int status;
  std::string body;
};

std::vector<ReplyPath> reply_paths() {
  EndpointProfile lenient;
  lenient.hosted_domains = {"www.example.org", "example.net"};
  EndpointProfile strict = lenient;
  strict.strict_http = true;
  EndpointProfile wildcard = lenient;
  wildcard.serves_subdomains = true;
  EndpointProfile reject = lenient;
  reject.reject_unknown_host = true;
  EndpointProfile default_vhost = lenient;
  default_vhost.default_vhost_for_unknown = true;
  EndpointProfile fixed = lenient;
  fixed.static_payload = "<html>static control page</html>";
  const std::string ok = "GET / HTTP/1.1\r\nHost: www.example.org\r\n\r\n";
  return {
      {"200 vhost", lenient, ok, 200, legitimate_content_for("www.example.org")},
      {"200 vhost mixed case", lenient, "GET /x HTTP/1.1\r\nHost: WWW.Example.ORG\r\n\r\n", 200,
       legitimate_content_for("WWW.Example.ORG")},
      {"200 second vhost", strict, "GET / HTTP/1.0\r\nhost: example.net\r\n\r\n", 200,
       legitimate_content_for("example.net")},
      {"200 wildcard subdomain", wildcard, "GET / HTTP/1.1\r\nHost: wiki.Example.NET\r\n\r\n",
       200, legitimate_content_for("wiki.Example.NET")},
      {"200 default vhost, no Host", lenient, "GET / HTTP/1.1\r\n\r\n", 200,
       legitimate_content_for("www.example.org")},
      {"200 default vhost, unknown Host", default_vhost,
       "GET / HTTP/1.1\r\nHost: **www.example.org*\r\n\r\n", 200,
       legitimate_content_for("www.example.org")},
      {"200 static payload", fixed, "BREW / HTTP/9\r\n\r\n", 200,
       "<html>static control page</html>"},
      {"301", lenient, "GET / HTTP/1.1\r\nHost: other.com\r\n\r\n", 301,
       "<html>Moved to www.example.org</html>"},
      {"400 unparsable", lenient, "nonsense", 400, "<html>Bad Request</html>"},
      {"400 no path", strict, "GET  HTTP/1.1\r\nHost: www.example.org\r\n\r\n", 400,
       "<html>Bad Request</html>"},
      {"400 bare LF", strict, "GET / HTTP/1.1\nHost: www.example.org\n\n", 400,
       "<html>Bad Request</html>"},
      {"400 missing Host", strict, "GET / HTTP/1.1\r\n\r\n", 400,
       "<html>Bad Request: missing Host</html>"},
      {"403", reject, "GET / HTTP/1.1\r\nHost: other.com\r\n\r\n", 403, "<html>Forbidden</html>"},
      {"501", strict, "BREW / HTTP/1.1\r\nHost: www.example.org\r\n\r\n", 501,
       "<html>Not Implemented</html>"},
      {"505", strict, "GET / HTTP/9\r\nHost: www.example.org\r\n\r\n", 505,
       "<html>HTTP Version Not Supported</html>"},
  };
}

/// Replies of every path, hand-written edge cases, and seeded mutations:
/// truncations, inserted delimiters and digits, deleted and replaced bytes.
std::vector<std::string> response_corpus() {
  std::vector<std::string> base;
  for (const ReplyPath& p : reply_paths()) {
    base.push_back(to_string(make_host(p.profile).handle_payload(to_bytes(p.request)).data));
  }
  for (const char* edge : {
           "", "HTTP/", "HTTP/1.1", "HTTP/1.1 200", "HTTP/1.1 200\r\n", "HTTP/1.1 200 \r\n",
           "HTTP/1.1  200 OK\r\n\r\nbody", "HTTP/1.1 200  OK  \r\n\r\n", "HTTP/1.1 +200 OK\r\n",
           "HTTP/1.1 -7 Neg\r\n", "HTTP/1.1 \t42 Tab\r\n", "HTTP/1.1 99999999999 Big\r\n\r\n",
           "HTTP/1.1 -99999999999 Small\r\n\r\n", "HTTP/1.1 4294967297 Wrap\r\n\r\n",
           "HTTP/1.1 20x0 Mixed\r\n\r\n", "HTTP/1.1 x OK\r\n\r\n", "HTTP/2 418 I'm a teapot\r\n",
           "HTTP/1.1 200 OK\r\nA: b\r\nNoColon\r\n : v \r\n\r\nbody\r\n", "HTTP/1.1 200 OK\r\nA: b",
           "HTTP/1.1 200 OK\r\nA: b\r\n", "HTTP/1.1 200 OK\r\n\r\n", "HTTP/1.1 200 OK\n\nbody",
           "HTTP/1.1 200 OK\rX\r\n\r\n", "http/1.1 200 OK\r\n\r\n", " HTTP/1.1 200 OK\r\n\r\n",
           "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n\r\n\r\nabc"}) {
    base.emplace_back(edge);
  }
  std::vector<std::string> corpus = base;
  Rng rng(0x4e5b);
  const std::string inserts[] = {"\r", "\n", "\r\n", " ", "0", "9", ":"};
  for (const std::string& s : base) {
    for (int k = 0; k < 12; ++k) {
      std::string m = s;
      switch (rng.uniform(4)) {
        case 0:
          m.resize(rng.uniform(m.size() + 1));
          break;
        case 1:
          m.insert(rng.uniform(m.size() + 1), inserts[rng.uniform(std::size(inserts))]);
          break;
        case 2:
          if (!m.empty()) m.erase(rng.uniform(m.size()), 1);
          break;
        default:
          if (!m.empty()) m[rng.uniform(m.size())] = static_cast<char>(rng.uniform(256));
          break;
      }
      corpus.push_back(std::move(m));
    }
  }
  return corpus;
}

}  // namespace

TEST(EndpointHost, ReplyBytesPinned) {
  for (const ReplyPath& p : reply_paths()) {
    const AppReply reply = make_host(p.profile).handle_payload(to_bytes(p.request));
    ASSERT_EQ(reply.kind, AppReply::Kind::kData) << p.name;
    const std::string expected =
        net::HttpResponse::make(p.status, net::http_reason(p.status), p.body).serialize();
    EXPECT_EQ(to_string(reply.data), expected) << p.name;
  }
}

TEST(HttpResponse, ParseCorpus) {
  FingerprintBuilder fp;
  std::size_t parsed = 0;
  const std::vector<std::string> corpus = response_corpus();
  for (const std::string& raw : corpus) {
    const std::optional<net::HttpResponse> resp = net::HttpResponse::parse(raw);
    fp.mix(resp.has_value());
    if (!resp) continue;
    ++parsed;
    fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(resp->status)));
    fp.mix(resp->reason);
    fp.mix(static_cast<std::uint64_t>(resp->headers.size()));
    for (const auto& [name, value] : resp->headers) fp.mix(name).mix(value);
    fp.mix(resp->body);
  }
  EXPECT_GT(parsed, corpus.size() / 2);
  EXPECT_LT(parsed, corpus.size());
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(fp.digest()));
  EXPECT_EQ(fp.digest(), 0xd7d71047de3a55fcULL) << "parse() corpus digest is now " << hex;
}

TEST(HttpResponse, ViewAgreesWithParse) {
  // parse() is view() plus copies: the status, reason and body agree on
  // the whole corpus, and the header block has a line for every parsed
  // header.
  for (const std::string& raw : response_corpus()) {
    const std::optional<net::HttpResponseView> view = net::HttpResponse::view(raw);
    const std::optional<net::HttpResponse> resp = net::HttpResponse::parse(raw);
    ASSERT_EQ(view.has_value(), resp.has_value()) << testing::PrintToString(raw);
    if (!view) continue;
    EXPECT_EQ(view->status, resp->status) << testing::PrintToString(raw);
    EXPECT_EQ(view->reason, resp->reason) << testing::PrintToString(raw);
    EXPECT_EQ(view->body, resp->body) << testing::PrintToString(raw);
    std::size_t lines = 0;
    for (std::size_t pos = view->headers.find("\r\n"); pos != std::string_view::npos;
         pos = view->headers.find("\r\n", pos + 2)) {
      ++lines;
    }
    EXPECT_GE(lines, resp->headers.size()) << testing::PrintToString(raw);
  }
}

// -------------------------------------------------- TLS reply-byte pins
//
// Every handle_tls reply path, with the exact bytes the endpoint must
// send: what ServerHello{version, suite, certificate}.serialize() or
// TlsAlert{description}.serialize() gives. The replies over the whole
// ClientHello corpus are pinned by digest.

namespace {

struct TlsReplyPath {
  const char* name;
  EndpointProfile profile;
  Bytes hello;
  Bytes expected;
};

std::vector<TlsReplyPath> tls_reply_paths() {
  using net::ClientHello;
  using net::ServerHello;
  using net::TlsAlert;
  using net::TlsVersion;
  EndpointProfile plain;
  plain.hosted_domains = {"www.example.org", "example.net"};
  EndpointProfile wildcard = plain;
  wildcard.serves_subdomains = true;
  EndpointProfile reject = plain;
  reject.reject_unknown_sni = true;

  auto hello = [](const std::string& sni, auto&& edit) {
    ClientHello ch = ClientHello::make(sni);
    edit(ch);
    return ch.serialize();
  };
  auto as_is = [](ClientHello&) {};
  auto server_hello = [](TlsVersion v, std::uint16_t suite, const std::string& cert) {
    return ServerHello{v, suite, cert}.serialize();
  };
  auto alert = [](std::uint8_t description) { return TlsAlert{description}.serialize(); };
  Bytes malformed = ClientHello::make("www.example.org").serialize();
  malformed[4] = static_cast<std::uint8_t>(malformed[4] + 1);

  return {
      {"hosted SNI", plain, hello("www.example.org", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "www.example.org")},
      {"hosted SNI, second vhost, mixed case", reject, hello("Example.NET", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "Example.NET")},
      {"subdomain", wildcard, hello("wiki.example.net", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "wiki.example.net")},
      {"subdomain without wildcard", plain, hello("wiki.example.net", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "www.example.org")},
      {"unknown SNI, reject", reject, hello("other.com", as_is),
       alert(TlsAlert::kUnrecognizedName)},
      {"unknown SNI, default vhost", plain, hello("other.com", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "www.example.org")},
      {"no SNI", reject, hello("www.example.org", [](ClientHello& ch) { ch.remove_sni(); }),
       server_hello(TlsVersion::kTls13, 0x1301, "www.example.org")},
      {"empty SNI", reject, hello("", as_is),
       server_hello(TlsVersion::kTls13, 0x1301, "www.example.org")},
      {"malformed hello", plain, malformed, alert(TlsAlert::kDecodeError)},
      {"legacy version only", plain,
       hello("www.example.org",
             [](ClientHello& ch) {
               ch.extensions.erase(ch.extensions.begin());
               ch.legacy_version = TlsVersion::kTls11;
             }),
       server_hello(TlsVersion::kTls11, 0x1301, "www.example.org")},
      {"highest version in range", plain,
       hello("www.example.org",
             [](ClientHello& ch) {
               ch.set_supported_versions({TlsVersion::kTls10, static_cast<TlsVersion>(0x7f17),
                                          TlsVersion::kTls12, static_cast<TlsVersion>(0x0300)});
             }),
       server_hello(TlsVersion::kTls12, 0x1301, "www.example.org")},
      {"no version in range", plain,
       hello("www.example.org",
             [](ClientHello& ch) {
               ch.set_supported_versions(
                   {static_cast<TlsVersion>(0x0300), static_cast<TlsVersion>(0x7f17)});
             }),
       alert(TlsAlert::kProtocolVersion)},
      {"empty version list", plain,
       hello("www.example.org", [](ClientHello& ch) { ch.set_supported_versions({}); }),
       alert(TlsAlert::kProtocolVersion)},
      {"malformed version list", plain,
       hello("www.example.org",
             [](ClientHello& ch) {
               ch.extensions.front().data = {0x03, 0x03, 0x04, 0x03};
               ch.legacy_version = TlsVersion::kTls10;
             }),
       server_hello(TlsVersion::kTls10, 0x1301, "www.example.org")},
      {"first usable suite", plain,
       hello("www.example.org",
             [](ClientHello& ch) { ch.cipher_suites = {0xeeee, 0x0004, 0x0035, 0x1301}; }),
       server_hello(TlsVersion::kTls13, 0x0035, "www.example.org")},
      {"RC4-MD5 only", plain,
       hello("www.example.org", [](ClientHello& ch) { ch.cipher_suites = {0x0004}; }),
       alert(TlsAlert::kHandshakeFailure)},
      {"unknown suites only", plain,
       hello("www.example.org", [](ClientHello& ch) { ch.cipher_suites = {0xeeee, 0x0001}; }),
       alert(TlsAlert::kHandshakeFailure)},
      {"no suites", plain,
       hello("www.example.org", [](ClientHello& ch) { ch.cipher_suites.clear(); }),
       alert(TlsAlert::kHandshakeFailure)},
  };
}

}  // namespace

TEST(EndpointHost, TlsReplyBytesPinned) {
  for (const TlsReplyPath& p : tls_reply_paths()) {
    const AppReply reply = make_host(p.profile).handle_payload(p.hello);
    ASSERT_EQ(reply.kind, AppReply::Kind::kData) << p.name;
    EXPECT_EQ(to_hex(reply.data), to_hex(p.expected)) << p.name;
  }

  EndpointProfile reject;
  reject.hosted_domains = {"www.blocked.example", "example.org"};
  reject.serves_subdomains = true;
  reject.reject_unknown_sni = true;
  EndpointProfile lenient = reject;
  lenient.serves_subdomains = false;
  lenient.reject_unknown_sni = false;
  FingerprintBuilder fp;
  std::size_t replies = 0;
  for (const Bytes& hello : testing_tls::hello_corpus()) {
    for (const EndpointProfile* profile : {&reject, &lenient}) {
      const AppReply reply = make_host(*profile).handle_payload(hello);
      fp.mix(static_cast<std::uint64_t>(reply.kind));
      fp.mix(to_hex(reply.data));
      ++replies;
    }
  }
  EXPECT_GT(replies, 1000u);
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(fp.digest()));
  EXPECT_EQ(fp.digest(), 0xd0d11fdd79877facULL) << "TLS reply corpus digest is now " << hex;
}

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fingerprint.hpp"
#include "net/tls.hpp"
#include "tls_corpus.hpp"

using namespace cen;
using namespace cen::net;

TEST(ClientHello, MakeCarriesSni) {
  ClientHello ch = ClientHello::make("www.example.com");
  ASSERT_TRUE(ch.sni());
  EXPECT_EQ(*ch.sni(), "www.example.com");
}

TEST(ClientHello, SerializeParseRoundTrip) {
  ClientHello ch = ClientHello::make("www.blocked.example");
  Bytes wire = ch.serialize();
  ClientHello parsed = ClientHello::parse(wire);
  EXPECT_EQ(parsed.legacy_version, ch.legacy_version);
  EXPECT_EQ(parsed.cipher_suites, ch.cipher_suites);
  EXPECT_EQ(parsed.compression_methods, ch.compression_methods);
  EXPECT_EQ(parsed.extensions, ch.extensions);
  ASSERT_TRUE(parsed.sni());
  EXPECT_EQ(*parsed.sni(), "www.blocked.example");
}

TEST(ClientHello, RecordStructure) {
  Bytes wire = ClientHello::make("a.b").serialize();
  EXPECT_EQ(wire[0], 22);  // handshake record
  EXPECT_EQ(wire[5], 1);   // client_hello
  std::uint16_t record_len = static_cast<std::uint16_t>(wire[3] << 8 | wire[4]);
  EXPECT_EQ(record_len + 5u, wire.size());
}

TEST(ClientHello, SetSniReplacesExisting) {
  ClientHello ch = ClientHello::make("first.com");
  ch.set_sni("second.org");
  EXPECT_EQ(*ch.sni(), "second.org");
  int sni_exts = 0;
  for (const auto& e : ch.extensions) {
    if (e.type == TlsExtensionType::kServerName) ++sni_exts;
  }
  EXPECT_EQ(sni_exts, 1);
}

TEST(ClientHello, RemoveSni) {
  ClientHello ch = ClientHello::make("x.com");
  ch.remove_sni();
  EXPECT_FALSE(ch.sni());
  ClientHello parsed = ClientHello::parse(ch.serialize());
  EXPECT_FALSE(parsed.sni());
}

TEST(ClientHello, EmptySniRoundTrips) {
  ClientHello ch = ClientHello::make("");
  ClientHello parsed = ClientHello::parse(ch.serialize());
  ASSERT_TRUE(parsed.sni());
  EXPECT_EQ(*parsed.sni(), "");
}

TEST(ClientHello, SupportedVersions) {
  ClientHello ch = ClientHello::make("x.com");
  ch.set_supported_versions({TlsVersion::kTls11, TlsVersion::kTls10});
  auto versions = ClientHello::parse(ch.serialize()).supported_versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0], TlsVersion::kTls11);
  EXPECT_EQ(versions[1], TlsVersion::kTls10);
}

TEST(ClientHello, NoSupportedVersionsFallsBackToLegacy) {
  ClientHello ch;
  ch.legacy_version = TlsVersion::kTls11;
  ch.cipher_suites = {0x1301};
  auto versions = ch.supported_versions();
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0], TlsVersion::kTls11);
}

TEST(ClientHello, PaddingExtension) {
  ClientHello ch = ClientHello::make("x.com");
  std::size_t before = ch.serialize().size();
  ch.add_padding(100);
  EXPECT_EQ(ch.serialize().size(), before + 104);  // 4-byte TLV header + body
}

TEST(ClientHello, ParseRejectsGarbage) {
  EXPECT_THROW(ClientHello::parse(Bytes{0x17, 0x03, 0x03}), ParseError);
  EXPECT_THROW(ClientHello::parse(Bytes{}), ParseError);
  Bytes truncated = ClientHello::make("x.com").serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(ClientHello::parse(truncated), ParseError);
}

TEST(ClientHello, ParseRejectsLengthMismatch) {
  Bytes wire = ClientHello::make("x.com").serialize();
  wire[4] = static_cast<std::uint8_t>(wire[4] + 1);  // corrupt record length
  EXPECT_THROW(ClientHello::parse(wire), ParseError);
}

TEST(CipherSuites, ExactlyTwentyFive) {
  // Table 2: the CipherSuite Alternation strategy has 25 permutations.
  EXPECT_EQ(standard_cipher_suites().size(), 25u);
}

TEST(CipherSuites, NamesResolve) {
  EXPECT_EQ(cipher_suite_name(0x1301), "TLS_AES_128_GCM_SHA256");
  EXPECT_EQ(cipher_suite_name(0x0005), "TLS_RSA_WITH_RC4_128_SHA");
  EXPECT_EQ(cipher_suite_name(0xeeee).substr(0, 7), "UNKNOWN");
}

TEST(TlsVersionName, All) {
  EXPECT_EQ(tls_version_name(TlsVersion::kTls10), "TLS 1.0");
  EXPECT_EQ(tls_version_name(TlsVersion::kTls13), "TLS 1.3");
}

TEST(ServerHello, RoundTrip) {
  ServerHello sh;
  sh.version = TlsVersion::kTls13;
  sh.cipher_suite = 0x1302;
  sh.certificate_domain = "www.example.org";
  auto parsed = ServerHello::parse(sh.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->version, TlsVersion::kTls13);
  EXPECT_EQ(parsed->cipher_suite, 0x1302);
  EXPECT_EQ(parsed->certificate_domain, "www.example.org");
}

TEST(ServerHello, ParseRejectsClientHello) {
  Bytes ch = ClientHello::make("x.com").serialize();
  EXPECT_FALSE(ServerHello::parse(ch));
}

TEST(TlsAlert, RoundTrip) {
  TlsAlert alert{TlsAlert::kUnrecognizedName};
  auto parsed = TlsAlert::parse(alert.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->description, TlsAlert::kUnrecognizedName);
}

TEST(TlsAlert, ParseRejectsHandshake) {
  EXPECT_FALSE(TlsAlert::parse(ClientHello::make("x").serialize()));
}

// Property: SNI of any hostname round-trips, including fuzzer shapes.
class SniRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SniRoundTrip, Preserved) {
  ClientHello ch = ClientHello::make(GetParam());
  ClientHello parsed = ClientHello::parse(ch.serialize());
  ASSERT_TRUE(parsed.sni());
  EXPECT_EQ(*parsed.sni(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(FuzzShapes, SniRoundTrip,
                         ::testing::Values("www.example.com", "moc.elpmaxe.www",
                                           "**www.example.com*",
                                           "www.example.comwww.example.com",
                                           "m.example.com", "www.example.biz", "a",
                                           "xn--e1afmkfd.xn--p1ai"));

// Property: every catalogue cipher suite survives a single-suite hello.
class SingleSuiteHello : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SingleSuiteHello, RoundTrips) {
  const CipherSuite& cs = standard_cipher_suites()[GetParam()];
  ClientHello ch = ClientHello::make("x.com");
  ch.cipher_suites = {cs.code};
  ClientHello parsed = ClientHello::parse(ch.serialize());
  ASSERT_EQ(parsed.cipher_suites.size(), 1u);
  EXPECT_EQ(parsed.cipher_suites[0], cs.code);
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SingleSuiteHello, ::testing::Range<std::size_t>(0, 25));

// What ClientHello::parse and its accessors make of the shared corpus
// (tls_corpus.hpp): every field of every accepted hello, pinned by digest.
TEST(ClientHello, ParseCorpus) {
  FingerprintBuilder fp;
  std::size_t parsed = 0;
  const std::vector<Bytes> corpus = testing_tls::hello_corpus();
  for (const Bytes& raw : corpus) {
    std::optional<ClientHello> ch;
    try {
      ch = ClientHello::parse(raw);
    } catch (const ParseError&) {
    }
    fp.mix(ch.has_value());
    if (!ch) continue;
    ++parsed;
    fp.mix(static_cast<std::uint64_t>(ch->record_version));
    fp.mix(static_cast<std::uint64_t>(ch->legacy_version));
    fp.mix(to_hex(BytesView(ch->random.data(), ch->random.size())));
    fp.mix(to_hex(ch->session_id));
    fp.mix(static_cast<std::uint64_t>(ch->cipher_suites.size()));
    for (std::uint16_t cs : ch->cipher_suites) fp.mix(static_cast<std::uint64_t>(cs));
    fp.mix(to_hex(ch->compression_methods));
    fp.mix(static_cast<std::uint64_t>(ch->extensions.size()));
    for (const TlsExtension& ext : ch->extensions) {
      fp.mix(static_cast<std::uint64_t>(ext.type)).mix(to_hex(ext.data));
    }
    const std::optional<std::string> sni = ch->sni();
    fp.mix(sni.has_value());
    if (sni) fp.mix(*sni);
    const std::vector<TlsVersion> versions = ch->supported_versions();
    fp.mix(static_cast<std::uint64_t>(versions.size()));
    for (TlsVersion v : versions) fp.mix(static_cast<std::uint64_t>(v));
  }
  EXPECT_GT(parsed, corpus.size() / 10);  // the corpus exercises both outcomes
  EXPECT_LT(parsed, corpus.size() / 2);
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(fp.digest()));
  EXPECT_EQ(fp.digest(), 0xc9ef53a619b88390ULL) << "parse() corpus digest is now " << hex;
}

TEST(ClientHello, ViewAgreesWithParse) {
  // parse() is the view plus copies: the view accepts exactly what parse()
  // accepts, and its fields, SNI, versions and extension lookups agree.
  for (const Bytes& raw : testing_tls::hello_corpus()) {
    const std::optional<ClientHelloView> view = ClientHelloView::parse(raw);
    std::optional<ClientHello> ch;
    try {
      ch = ClientHello::parse(raw);
    } catch (const ParseError&) {
    }
    ASSERT_EQ(view.has_value(), ch.has_value()) << to_hex(raw);
    if (!view) continue;
    EXPECT_EQ(view->record_version, ch->record_version) << to_hex(raw);
    EXPECT_EQ(view->legacy_version, ch->legacy_version) << to_hex(raw);
    EXPECT_EQ(to_hex(view->random), to_hex(BytesView(ch->random.data(), ch->random.size())));
    EXPECT_EQ(to_hex(view->session_id), to_hex(ch->session_id)) << to_hex(raw);
    EXPECT_EQ(to_hex(view->compression_methods), to_hex(ch->compression_methods));
    std::vector<std::uint16_t> suites;
    for (std::size_t i = 0; i < view->cipher_suite_count(); ++i) {
      suites.push_back(view->cipher_suite(i));
    }
    EXPECT_EQ(suites, ch->cipher_suites) << to_hex(raw);
    const std::optional<std::string_view> sni = view->sni();
    ASSERT_EQ(sni.has_value(), ch->sni().has_value()) << to_hex(raw);
    if (sni) {
      EXPECT_EQ(*sni, *ch->sni()) << to_hex(raw);
    }
    std::vector<TlsVersion> versions;
    view->for_each_version([&](TlsVersion v) { versions.push_back(v); });
    EXPECT_EQ(versions, ch->supported_versions()) << to_hex(raw);
    for (std::uint16_t type : {TlsExtensionType::kServerName, TlsExtensionType::kSupportedVersions,
                               TlsExtensionType::kPadding, TlsExtensionType::kKeyShare}) {
      const std::optional<BytesView> data = view->extension(type);
      const TlsExtension* first = nullptr;
      for (const TlsExtension& ext : ch->extensions) {
        if (ext.type == type) {
          first = &ext;
          break;
        }
      }
      ASSERT_EQ(data.has_value(), first != nullptr) << to_hex(raw);
      if (data) {
        EXPECT_EQ(to_hex(*data), to_hex(first->data)) << to_hex(raw);
      }
    }
  }
}

TEST(ServerHello, ParseTruncations) {
  // The fixed part is 47 bytes; the certificate domain's length prefix is
  // read only when both of its bytes are there, and then the whole domain
  // must be. Bytes after the domain are ignored.
  const ServerHello sh{TlsVersion::kTls13, 0x1302, "www.example.org"};
  Bytes wire = sh.serialize();
  ASSERT_EQ(wire.size(), 47u + 2 + sh.certificate_domain.size());
  for (std::size_t n = 0; n <= wire.size(); ++n) {
    const std::optional<ServerHello> parsed = ServerHello::parse(BytesView(wire).first(n));
    const bool whole = n == wire.size();
    ASSERT_EQ(parsed.has_value(), (n >= 47 && n < 49) || whole) << n;
    if (!parsed) continue;
    EXPECT_EQ(parsed->cipher_suite, 0x1302);
    EXPECT_EQ(parsed->certificate_domain, whole ? sh.certificate_domain : "") << n;
  }
  wire.push_back(0x7f);
  ASSERT_TRUE(ServerHello::parse(wire));
  EXPECT_EQ(ServerHello::view(wire)->certificate_domain, sh.certificate_domain);
}

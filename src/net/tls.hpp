// TLS ClientHello / ServerHello / Alert wire model (paper Fig. 8).
//
// ClientHellos are serialized to real TLS record bytes (record header,
// handshake header, legacy version, random, session id, cipher suites,
// compression methods, extensions). CenFuzz's eight TLS strategies mutate
// the version fields, cipher-suite list, and SNI extension; DPI models
// parse the resulting bytes with per-vendor tolerance quirks.
//
// One grammar reads a ClientHello: ClientHelloView::parse, which walks the
// record in place and allocates nothing. The DPI and the endpoint read
// hellos through it; ClientHello::parse is the view plus copies.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bytes.hpp"

namespace cen::net {

/// TLS protocol versions as on-the-wire u16 codes.
enum class TlsVersion : std::uint16_t {
  kTls10 = 0x0301,
  kTls11 = 0x0302,
  kTls12 = 0x0303,
  kTls13 = 0x0304,
};

std::string tls_version_name(TlsVersion v);

/// Extension type codes used in the simulation.
struct TlsExtensionType {
  static constexpr std::uint16_t kServerName = 0x0000;
  static constexpr std::uint16_t kSupportedGroups = 0x000a;
  static constexpr std::uint16_t kSignatureAlgorithms = 0x000d;
  static constexpr std::uint16_t kAlpn = 0x0010;
  static constexpr std::uint16_t kPadding = 0x0015;
  static constexpr std::uint16_t kSupportedVersions = 0x002b;
  static constexpr std::uint16_t kKeyShare = 0x0033;
};

struct TlsExtension {
  std::uint16_t type = 0;
  Bytes data;
  bool operator==(const TlsExtension&) const = default;
};

struct ClientHello {
  TlsVersion record_version = TlsVersion::kTls10;  // outer record legacy version
  TlsVersion legacy_version = TlsVersion::kTls12;  // client_version field
  std::array<std::uint8_t, 32> random{};
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint8_t> compression_methods{0};
  std::vector<TlsExtension> extensions;

  /// Build a realistic default hello offering `sni` and TLS 1.2–1.3.
  static ClientHello make(const std::string& sni);

  /// Replace (or add) the server_name extension; empty string emits an
  /// SNI extension with an empty host_name, as CenFuzz's "empty" probe does.
  void set_sni(const std::string& hostname);
  /// Remove the server_name extension entirely.
  void remove_sni();
  /// Extract the first host_name from the server_name extension, if present.
  std::optional<std::string> sni() const;
  /// Set the supported_versions extension to exactly these versions.
  void set_supported_versions(const std::vector<TlsVersion>& versions);
  std::vector<TlsVersion> supported_versions() const;
  /// Append a padding extension of `len` zero bytes.
  void add_padding(std::size_t len);

  /// Full record bytes: record header + handshake header + body.
  Bytes serialize() const;
  /// Serialize into a reused buffer (cleared first, capacity kept).
  /// Single pass with precomputed lengths — no intermediate body/extension
  /// buffers — producing bytes identical to serialize().
  void serialize_into(Bytes& out) const;
  /// Parse full record bytes; throws ParseError on malformed input.
  /// ClientHelloView::parse plus copies.
  static ClientHello parse(BytesView bytes);
};

/// A ClientHello read in place: views into the record bytes, valid as long
/// as they are. parse() accepts exactly what ClientHello::parse accepts,
/// and the accessors answer as ClientHello's do.
struct ClientHelloView {
  TlsVersion record_version = TlsVersion::kTls10;
  TlsVersion legacy_version = TlsVersion::kTls12;
  BytesView random;               // 32 bytes
  BytesView session_id;
  BytesView cipher_suite_bytes;   // two bytes per suite
  BytesView compression_methods;
  BytesView extensions;           // the extension block after its length

  /// Read full record bytes; nullopt where ClientHello::parse throws.
  static std::optional<ClientHelloView> parse(BytesView bytes);

  std::size_t cipher_suite_count() const { return cipher_suite_bytes.size() / 2; }
  std::uint16_t cipher_suite(std::size_t i) const {
    return static_cast<std::uint16_t>(cipher_suite_bytes[2 * i] << 8 |
                                      cipher_suite_bytes[2 * i + 1]);
  }
  /// The data of the first extension of `type`, or nullopt.
  std::optional<BytesView> extension(std::uint16_t type) const;
  /// ClientHello::sni() without the copy.
  std::optional<std::string_view> sni() const;
  /// Calls `f(TlsVersion)` for each version ClientHello::supported_versions()
  /// would list, in order, without building the list.
  template <typename F>
  void for_each_version(F&& f) const {
    const std::optional<BytesView> list = supported_version_list();
    if (!list) {
      f(legacy_version);
      return;
    }
    for (std::size_t i = 0; i < list->size(); i += 2) {
      f(static_cast<TlsVersion>((*list)[i] << 8 | (*list)[i + 1]));
    }
  }

 private:
  /// The version bytes of a well-formed supported_versions extension, or
  /// nullopt when the legacy version governs.
  std::optional<BytesView> supported_version_list() const;
};

/// Named cipher suite (IANA code + name string).
struct CipherSuite {
  std::uint16_t code;
  std::string_view name;
};

/// The 25 suites CenFuzz's Cipher Suite Alternation strategy iterates
/// (Table 2, NP=25), spanning TLS 1.3 AEADs, ECDHE suites and legacy RSA/RC4.
const std::vector<CipherSuite>& standard_cipher_suites();
std::string cipher_suite_name(std::uint16_t code);

/// A ServerHello read in place (ServerHello::view).
struct ServerHelloView {
  TlsVersion version = TlsVersion::kTls12;
  std::uint16_t cipher_suite = 0;
  std::string_view certificate_domain;
};

struct ServerHello {
  TlsVersion version = TlsVersion::kTls12;
  std::uint16_t cipher_suite = 0;
  /// Domain of the certificate the server would present (simulation-level
  /// shortcut; a real stack would carry a Certificate message).
  std::string certificate_domain;

  Bytes serialize() const { return encode(version, cipher_suite, certificate_domain); }
  /// The bytes serialize() gives for these fields, written at their exact
  /// size without a ServerHello (or a copy of the domain) in between.
  static Bytes encode(TlsVersion version, std::uint16_t cipher_suite,
                      std::string_view certificate_domain);
  /// Read a serialized ServerHello in place; nullopt if it is not one.
  /// The one ServerHello grammar: parse() is view() plus a copy.
  static std::optional<ServerHelloView> view(BytesView bytes);
  static std::optional<ServerHello> parse(BytesView bytes);
};

/// TLS alert record (always fatal in this simulation).
struct TlsAlert {
  static constexpr std::uint8_t kHandshakeFailure = 40;
  static constexpr std::uint8_t kDecodeError = 50;
  static constexpr std::uint8_t kProtocolVersion = 70;
  static constexpr std::uint8_t kUnrecognizedName = 112;

  std::uint8_t description = kHandshakeFailure;

  Bytes serialize() const;
  static std::optional<TlsAlert> parse(BytesView bytes);
};

}  // namespace cen::net

#include "net/tls.hpp"

#include <algorithm>

namespace cen::net {

std::string tls_version_name(TlsVersion v) {
  switch (v) {
    case TlsVersion::kTls10: return "TLS 1.0";
    case TlsVersion::kTls11: return "TLS 1.1";
    case TlsVersion::kTls12: return "TLS 1.2";
    case TlsVersion::kTls13: return "TLS 1.3";
  }
  return "TLS ?";
}

ClientHello ClientHello::make(const std::string& sni_host) {
  ClientHello ch;
  // A realistic modern offer: TLS 1.3 + 1.2 AEAD suites first.
  ch.cipher_suites = {0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0xc02c, 0xc030,
                      0xcca9, 0xcca8, 0x009c, 0x009d, 0x002f, 0x0035};
  // Deterministic pseudo-random bytes; the simulation never needs entropy here.
  for (std::size_t i = 0; i < ch.random.size(); ++i) {
    ch.random[i] = static_cast<std::uint8_t>(0x5a ^ (i * 37));
  }
  ch.set_supported_versions({TlsVersion::kTls13, TlsVersion::kTls12});
  TlsExtension groups;
  groups.type = TlsExtensionType::kSupportedGroups;
  groups.data = {0x00, 0x04, 0x00, 0x1d, 0x00, 0x17};  // x25519, secp256r1
  ch.extensions.push_back(std::move(groups));
  ch.set_sni(sni_host);
  return ch;
}

namespace {

/// A bounds-checked big-endian cursor that reports a short read instead
/// of throwing: the ClientHello and ServerHello grammars run on it. (A
/// throw allocates, and the DPI reads malformed fuzz hellos constantly.)
class Cursor {
 public:
  explicit Cursor(BytesView data) : rest_(data) {}

  bool take(std::size_t n, BytesView& out) {
    if (n > rest_.size()) return false;
    out = rest_.first(n);
    rest_ = rest_.subspan(n);
    return true;
  }
  bool skip(std::size_t n) {
    BytesView unused;
    return take(n, unused);
  }
  bool u8(std::uint8_t& v) {
    BytesView b;
    if (!take(1, b)) return false;
    v = b[0];
    return true;
  }
  bool u16(std::uint16_t& v) {
    BytesView b;
    if (!take(2, b)) return false;
    v = static_cast<std::uint16_t>(b[0] << 8 | b[1]);
    return true;
  }
  bool u24(std::uint32_t& v) {
    BytesView b;
    if (!take(3, b)) return false;
    v = static_cast<std::uint32_t>(b[0]) << 16 | static_cast<std::uint32_t>(b[1]) << 8 | b[2];
    return true;
  }
  std::size_t remaining() const { return rest_.size(); }
  BytesView rest() const { return rest_; }

 private:
  BytesView rest_;
};

/// Calls `f(type, data)` for each extension of an extension block, in
/// order, until `f` returns true. False if the block ends inside an
/// extension.
template <typename F>
bool walk_extensions(BytesView block, F&& f) {
  Cursor c(block);
  while (c.remaining() > 0) {
    std::uint16_t type = 0;
    std::uint16_t len = 0;
    BytesView data;
    if (!c.u16(type) || !c.u16(len) || !c.take(len, data)) return false;
    if (f(type, data)) return true;
  }
  return true;
}

/// The host_name of a server_name extension body; nullopt when the body
/// is truncated or its first name is not a host_name. Bytes after the
/// name are ignored.
std::optional<std::string_view> host_name_in(BytesView data) {
  Cursor c(data);
  std::uint16_t list_len = 0;
  std::uint8_t name_type = 0;
  std::uint16_t len = 0;
  BytesView name;
  if (!c.u16(list_len) || !c.u8(name_type) || name_type != 0 || !c.u16(len) ||
      !c.take(len, name)) {
    return std::nullopt;
  }
  return as_text(name);
}

/// The version bytes of a supported_versions extension body. A malformed
/// body (truncated list, odd length, trailing bytes) yields nullopt rather
/// than a partial list that misrepresents the offer: the legacy_version
/// field then governs, as for no extension.
std::optional<BytesView> version_list_in(BytesView data) {
  if (data.empty()) return std::nullopt;
  const std::size_t len = data[0];
  if (len % 2 != 0 || len != data.size() - 1) return std::nullopt;
  return data.subspan(1);
}

/// The ClientHello grammar: fills `out` and returns nullptr, or returns
/// why the record is not a well-formed ClientHello.
const char* read_client_hello(BytesView bytes, ClientHelloView& out) {
  constexpr const char* kTruncated = "truncated TLS ClientHello";
  Cursor c(bytes);
  std::uint8_t record_type = 0;
  if (!c.u8(record_type)) return kTruncated;
  if (record_type != 22) return "not a TLS handshake record";
  std::uint16_t record_version = 0;
  std::uint16_t record_len = 0;
  if (!c.u16(record_version) || !c.u16(record_len)) return kTruncated;
  if (record_len != c.remaining()) return "TLS record length mismatch";
  std::uint8_t hs_type = 0;
  if (!c.u8(hs_type)) return kTruncated;
  if (hs_type != 1) return "not a ClientHello";
  std::uint32_t hs_len = 0;
  if (!c.u24(hs_len)) return kTruncated;
  if (hs_len != c.remaining()) return "handshake length mismatch";
  std::uint16_t legacy_version = 0;
  std::uint8_t sid_len = 0;
  std::uint16_t cs_len = 0;
  if (!c.u16(legacy_version) || !c.take(32, out.random) || !c.u8(sid_len) ||
      !c.take(sid_len, out.session_id) || !c.u16(cs_len)) {
    return kTruncated;
  }
  if (cs_len % 2 != 0) return "odd cipher-suite list length";
  std::uint8_t cm_len = 0;
  if (!c.take(cs_len, out.cipher_suite_bytes) || !c.u8(cm_len) ||
      !c.take(cm_len, out.compression_methods)) {
    return kTruncated;
  }
  out.record_version = static_cast<TlsVersion>(record_version);
  out.legacy_version = static_cast<TlsVersion>(legacy_version);
  out.extensions = {};
  if (c.remaining() > 0) {
    std::uint16_t ext_len = 0;
    if (!c.u16(ext_len)) return kTruncated;
    if (ext_len != c.remaining()) return "extensions length mismatch";
    out.extensions = c.rest();
    if (!walk_extensions(out.extensions, [](std::uint16_t, BytesView) { return false; })) {
      return kTruncated;
    }
  }
  return nullptr;
}

Bytes encode_sni(const std::string& hostname) {
  if (hostname.size() > 0xfffc) throw ParseError("SNI hostname too long");
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(hostname.size() + 3));  // server_name_list length
  w.u8(0);                                                 // name_type = host_name
  w.u16(static_cast<std::uint16_t>(hostname.size()));
  w.raw(hostname);
  return std::move(w).take();
}

}  // namespace

void ClientHello::set_sni(const std::string& hostname) {
  Bytes data = encode_sni(hostname);
  for (TlsExtension& ext : extensions) {
    if (ext.type == TlsExtensionType::kServerName) {
      ext.data = std::move(data);
      return;
    }
  }
  extensions.push_back({TlsExtensionType::kServerName, std::move(data)});
}

void ClientHello::remove_sni() {
  std::erase_if(extensions, [](const TlsExtension& e) {
    return e.type == TlsExtensionType::kServerName;
  });
}

std::optional<std::string> ClientHello::sni() const {
  for (const TlsExtension& ext : extensions) {
    if (ext.type != TlsExtensionType::kServerName) continue;
    const std::optional<std::string_view> name = host_name_in(ext.data);
    if (!name) return std::nullopt;
    return std::string(*name);
  }
  return std::nullopt;
}

void ClientHello::set_supported_versions(const std::vector<TlsVersion>& versions) {
  // The list-length prefix is one byte of version *bytes*: more than 127
  // versions would silently wrap it and corrupt the extension.
  if (versions.size() > 127) throw ParseError("TLS supported-versions list too long");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(versions.size() * 2));
  for (TlsVersion v : versions) w.u16(static_cast<std::uint16_t>(v));
  Bytes data = std::move(w).take();
  for (TlsExtension& ext : extensions) {
    if (ext.type == TlsExtensionType::kSupportedVersions) {
      ext.data = std::move(data);
      return;
    }
  }
  extensions.push_back({TlsExtensionType::kSupportedVersions, std::move(data)});
}

std::vector<TlsVersion> ClientHello::supported_versions() const {
  for (const TlsExtension& ext : extensions) {
    if (ext.type != TlsExtensionType::kSupportedVersions) continue;
    const std::optional<BytesView> list = version_list_in(ext.data);
    if (!list) break;
    std::vector<TlsVersion> out;
    for (std::size_t i = 0; i < list->size(); i += 2) {
      out.push_back(static_cast<TlsVersion>((*list)[i] << 8 | (*list)[i + 1]));
    }
    return out;
  }
  // No (usable) extension: the legacy_version field governs.
  return {legacy_version};
}

void ClientHello::add_padding(std::size_t len) {
  extensions.push_back({TlsExtensionType::kPadding, Bytes(len, 0)});
}

Bytes ClientHello::serialize() const {
  Bytes out;
  serialize_into(out);
  return out;
}

void ClientHello::serialize_into(Bytes& out) const {
  // All lengths are computable up front, so the record is written in one
  // pass with no intermediate body/extension buffers.
  std::size_t ext_total = 0;
  for (const TlsExtension& ext : extensions) {
    if (ext.data.size() > 0xffff) throw ParseError("TLS extension data too large");
    ext_total += 4 + ext.data.size();
  }
  std::size_t body_len = 2 + 32 + 1 + session_id.size() + 2 +
                         cipher_suites.size() * 2 + 1 + compression_methods.size() +
                         2 + ext_total;
  // Every length field below is a truncating cast; reject anything that
  // would wrap rather than emit a silently corrupt record. Thrown before
  // the writer adopts `out`, so the caller's buffer survives intact.
  if (session_id.size() > 0xff) throw ParseError("TLS session id too long");
  if (cipher_suites.size() > 0x7fff) throw ParseError("TLS cipher-suite list too long");
  if (compression_methods.size() > 0xff) throw ParseError("TLS compression list too long");
  if (ext_total > 0xffff) throw ParseError("TLS extensions too large");
  if (body_len + 4 > 0xffff) throw ParseError("TLS ClientHello too large");

  ByteWriter w(std::move(out));
  // Record header (type 22) + handshake header (type 1 = client_hello).
  w.u8(22);
  w.u16(static_cast<std::uint16_t>(record_version));
  w.u16(static_cast<std::uint16_t>(body_len + 4));
  w.u8(1);
  w.u24(static_cast<std::uint32_t>(body_len));
  // Handshake body.
  w.u16(static_cast<std::uint16_t>(legacy_version));
  w.raw(BytesView(random.data(), random.size()));
  w.u8(static_cast<std::uint8_t>(session_id.size()));
  w.raw(session_id);
  w.u16(static_cast<std::uint16_t>(cipher_suites.size() * 2));
  for (std::uint16_t cs : cipher_suites) w.u16(cs);
  w.u8(static_cast<std::uint8_t>(compression_methods.size()));
  for (std::uint8_t cm : compression_methods) w.u8(cm);
  w.u16(static_cast<std::uint16_t>(ext_total));
  for (const TlsExtension& ext : extensions) {
    w.u16(ext.type);
    w.u16(static_cast<std::uint16_t>(ext.data.size()));
    w.raw(ext.data);
  }
  out = std::move(w).take();
}

ClientHello ClientHello::parse(BytesView bytes) {
  ClientHelloView view;
  if (const char* error = read_client_hello(bytes, view)) throw ParseError(error);
  ClientHello ch;
  ch.record_version = view.record_version;
  ch.legacy_version = view.legacy_version;
  std::copy(view.random.begin(), view.random.end(), ch.random.begin());
  ch.session_id.assign(view.session_id.begin(), view.session_id.end());
  ch.cipher_suites.reserve(view.cipher_suite_count());
  for (std::size_t i = 0; i < view.cipher_suite_count(); ++i) {
    ch.cipher_suites.push_back(view.cipher_suite(i));
  }
  ch.compression_methods.assign(view.compression_methods.begin(),
                                view.compression_methods.end());
  walk_extensions(view.extensions, [&](std::uint16_t type, BytesView data) {
    ch.extensions.push_back({type, Bytes(data.begin(), data.end())});
    return false;
  });
  return ch;
}

std::optional<ClientHelloView> ClientHelloView::parse(BytesView bytes) {
  ClientHelloView view;
  if (read_client_hello(bytes, view) != nullptr) return std::nullopt;
  return view;
}

std::optional<BytesView> ClientHelloView::extension(std::uint16_t type) const {
  std::optional<BytesView> found;
  walk_extensions(extensions, [&](std::uint16_t t, BytesView data) {
    if (t == type) found = data;
    return found.has_value();
  });
  return found;
}

std::optional<std::string_view> ClientHelloView::sni() const {
  const std::optional<BytesView> data = extension(TlsExtensionType::kServerName);
  if (!data) return std::nullopt;
  return host_name_in(*data);
}

std::optional<BytesView> ClientHelloView::supported_version_list() const {
  const std::optional<BytesView> data = extension(TlsExtensionType::kSupportedVersions);
  if (!data) return std::nullopt;
  return version_list_in(*data);
}

const std::vector<CipherSuite>& standard_cipher_suites() {
  static const std::vector<CipherSuite> kSuites = {
      {0x1301, "TLS_AES_128_GCM_SHA256"},
      {0x1302, "TLS_AES_256_GCM_SHA384"},
      {0x1303, "TLS_CHACHA20_POLY1305_SHA256"},
      {0xc02b, "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256"},
      {0xc02c, "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384"},
      {0xc02f, "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"},
      {0xc030, "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384"},
      {0xcca8, "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256"},
      {0xcca9, "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256"},
      {0xc013, "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA"},
      {0xc014, "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA"},
      {0xc009, "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA"},
      {0xc00a, "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA"},
      {0x009c, "TLS_RSA_WITH_AES_128_GCM_SHA256"},
      {0x009d, "TLS_RSA_WITH_AES_256_GCM_SHA384"},
      {0x002f, "TLS_RSA_WITH_AES_128_CBC_SHA"},
      {0x0035, "TLS_RSA_WITH_AES_256_CBC_SHA"},
      {0x003c, "TLS_RSA_WITH_AES_128_CBC_SHA256"},
      {0x003d, "TLS_RSA_WITH_AES_256_CBC_SHA256"},
      {0x000a, "TLS_RSA_WITH_3DES_EDE_CBC_SHA"},
      {0x0005, "TLS_RSA_WITH_RC4_128_SHA"},
      {0x0004, "TLS_RSA_WITH_RC4_128_MD5"},
      {0x0067, "TLS_DHE_RSA_WITH_AES_128_CBC_SHA256"},
      {0x006b, "TLS_DHE_RSA_WITH_AES_256_CBC_SHA256"},
      {0x0016, "TLS_DHE_RSA_WITH_3DES_EDE_CBC_SHA"},
  };
  return kSuites;
}

std::string cipher_suite_name(std::uint16_t code) {
  for (const CipherSuite& cs : standard_cipher_suites()) {
    if (cs.code == code) return std::string(cs.name);
  }
  return "UNKNOWN_0x" + to_hex(Bytes{static_cast<std::uint8_t>(code >> 8),
                                     static_cast<std::uint8_t>(code)});
}

Bytes ServerHello::encode(TlsVersion version, std::uint16_t cipher_suite,
                          std::string_view certificate_domain) {
  // Version, random, empty session id, suite, null compression.
  constexpr std::size_t kBody = 2 + 32 + 1 + 2 + 1;
  Bytes out;
  out.reserve(5 + 4 + kBody + 2 + certificate_domain.size());
  ByteWriter w(std::move(out));
  w.u8(22);
  w.u16(static_cast<std::uint16_t>(TlsVersion::kTls12));
  w.u16(static_cast<std::uint16_t>(kBody + 4 + 2 + certificate_domain.size()));
  w.u8(2);  // server_hello
  w.u24(static_cast<std::uint32_t>(kBody));
  w.u16(static_cast<std::uint16_t>(version));
  for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(0xa5 ^ i));
  w.u8(0);  // empty session id
  w.u16(cipher_suite);
  w.u8(0);  // null compression
  // Simulation shortcut: certificate domain appended as length-prefixed blob.
  w.u16(static_cast<std::uint16_t>(certificate_domain.size()));
  w.raw(certificate_domain);
  return std::move(w).take();
}

std::optional<ServerHelloView> ServerHello::view(BytesView bytes) {
  Cursor c(bytes);
  std::uint8_t record_type = 0;
  std::uint8_t hs_type = 0;
  std::uint32_t body_len = 0;
  std::uint16_t version = 0;
  std::uint8_t sid = 0;
  ServerHelloView sh;
  if (!c.u8(record_type) || record_type != 22 || !c.skip(4) ||  // record version, length
      !c.u8(hs_type) || hs_type != 2 || !c.u24(body_len) || !c.u16(version) ||
      !c.skip(32) || !c.u8(sid) || !c.skip(sid) || !c.u16(sh.cipher_suite) ||
      !c.skip(1)) {  // compression
    return std::nullopt;
  }
  sh.version = static_cast<TlsVersion>(version);
  if (c.remaining() >= 2) {
    std::uint16_t dom_len = 0;
    BytesView domain;
    if (!c.u16(dom_len) || !c.take(dom_len, domain)) return std::nullopt;
    sh.certificate_domain = as_text(domain);
  }
  return sh;
}

std::optional<ServerHello> ServerHello::parse(BytesView bytes) {
  const std::optional<ServerHelloView> view = ServerHello::view(bytes);
  if (!view) return std::nullopt;
  return ServerHello{view->version, view->cipher_suite, std::string(view->certificate_domain)};
}

Bytes TlsAlert::serialize() const {
  // Alert record, TLS 1.2, two bytes: fatal, description.
  return Bytes{21, 0x03, 0x03, 0x00, 0x02, 2, description};
}

std::optional<TlsAlert> TlsAlert::parse(BytesView bytes) {
  try {
    ByteReader r(bytes);
    if (r.u8() != 21) return std::nullopt;
    r.skip(2);
    std::uint16_t len = r.u16();
    if (len != 2) return std::nullopt;
    r.skip(1);  // level
    TlsAlert a;
    a.description = r.u8();
    return a;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace cen::net

// ClientHello-shaped payloads shared by the TLS pins (test_dpi.cpp,
// test_tls.cpp, test_endpoint.cpp): every TLS fuzz probe of two domains,
// hand-built edge hellos, and seeded mutations of each — truncations,
// corrupted length fields and flipped bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cenfuzz/strategies.hpp"
#include "core/bytes.hpp"
#include "core/rng.hpp"
#include "net/tls.hpp"

namespace cen::testing_tls {

/// A server_name extension body naming `host`, as ClientHello::set_sni
/// writes it.
inline Bytes sni_extension(const std::string& host) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(host.size() + 3));
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(host.size()));
  w.raw(host);
  return std::move(w).take();
}

/// Hand-built hellos for the edges the probe tables never reach.
inline std::vector<Bytes> edge_hellos() {
  using net::ClientHello;
  using net::TlsExtensionType;
  using net::TlsVersion;
  std::vector<Bytes> out;
  auto add = [&](const ClientHello& ch) { out.push_back(ch.serialize()); };
  auto with_ext = [](ClientHello ch, std::uint16_t type, Bytes data, bool front) {
    net::TlsExtension ext{type, std::move(data)};
    if (front) {
      ch.extensions.insert(ch.extensions.begin(), std::move(ext));
    } else {
      ch.extensions.push_back(std::move(ext));
    }
    return ch;
  };
  const ClientHello base = ClientHello::make("www.example.org");
  add(base);
  ClientHello ch = base;
  ch.remove_sni();
  add(ch);                                       // no SNI
  add(ClientHello::make(""));                    // empty SNI
  add(with_ext(base, TlsExtensionType::kServerName, sni_extension("second.example"), false));
  add(with_ext(base, TlsExtensionType::kServerName, sni_extension("first.example"), true));
  // Malformed server_name bodies, placed first so they are the one read.
  for (const Bytes& bad : {Bytes{}, Bytes{0x00}, Bytes{0x00, 0x05},
                           Bytes{0x00, 0x06, 0x01, 0x00, 0x03, 'a', '.', 'b'},  // name_type 1
                           Bytes{0x00, 0x10, 0x00, 0x00, 0x10, 'a', 'b'},       // short name
                           Bytes{0x00, 0x05, 0x00, 0x00, 0x00},                 // zero-length
                           Bytes{0x00, 0x07, 0x00, 0x00, 0x01, 'x', 0xff, 0xfe}}) {  // trailing
    add(with_ext(base, TlsExtensionType::kServerName, bad, true));
  }
  // supported_versions: empty list, unknown versions, malformed bodies,
  // duplicates (the first one governs).
  ch = base;
  ch.set_supported_versions({});
  add(ch);
  ch.set_supported_versions({static_cast<TlsVersion>(0x0300), static_cast<TlsVersion>(0x7f17)});
  add(ch);
  ch.legacy_version = static_cast<TlsVersion>(0x0300);
  add(ch);
  ch.remove_sni();
  add(ch);
  for (const Bytes& bad : {Bytes{}, Bytes{0x03, 0x03, 0x04, 0x03}, Bytes{0x02, 0x03, 0x04, 0x00},
                           Bytes{0x04, 0x03, 0x04}, Bytes{0x01, 0x03}, Bytes{0x00, 0x03}}) {
    ch = base;
    ch.extensions.erase(ch.extensions.begin());  // make() puts supported_versions first
    add(with_ext(ch, TlsExtensionType::kSupportedVersions, bad, true));
    add(with_ext(base, TlsExtensionType::kSupportedVersions, bad, true));
    ch.legacy_version = TlsVersion::kTls10;
    add(with_ext(ch, TlsExtensionType::kSupportedVersions, bad, false));
  }
  // Cipher lists: one blind or refused suite, unknown only, none, mixed.
  for (const std::vector<std::uint16_t>& suites :
       std::vector<std::vector<std::uint16_t>>{{0x0005}, {0x0004}, {0xeeee}, {}, {0x0004, 0x1301},
                                               {0xeeee, 0x0004, 0x0035}, {0x000a}}) {
    ch = base;
    ch.cipher_suites = suites;
    add(ch);
  }
  // Padding, session id, compression list, no extensions at all.
  ch = base;
  ch.add_padding(0);
  ch.add_padding(16);
  add(ch);
  ch = base;
  ch.session_id = Bytes(32, 0xab);
  ch.compression_methods = {1, 0};
  add(ch);
  ch = base;
  ch.extensions.clear();
  add(ch);
  // ...and without even the extensions length: the hello ends at the
  // compression methods, with the record and handshake lengths fixed up.
  Bytes bare = ch.serialize();
  bare.resize(bare.size() - 2);
  bare[3] = static_cast<std::uint8_t>((bare.size() - 5) >> 8);
  bare[4] = static_cast<std::uint8_t>(bare.size() - 5);
  bare[6] = 0;
  bare[7] = static_cast<std::uint8_t>((bare.size() - 9) >> 8);
  bare[8] = static_cast<std::uint8_t>(bare.size() - 9);
  out.push_back(bare);
  // Not a ClientHello, or not TLS at all.
  out.push_back(Bytes{});
  out.push_back(Bytes{0x16});
  out.push_back(Bytes{0x16, 0x03, 0x01});
  out.push_back(to_bytes("GET / HTTP/1.1\r\n"));
  Bytes server_hello = net::ServerHello{net::TlsVersion::kTls12, 0x1301, "a.b"}.serialize();
  out.push_back(server_hello);
  return out;
}

/// Offsets of the length fields of a well-formed hello, for corruption:
/// record, handshake, cipher suites, extensions, first extension.
inline std::vector<std::size_t> length_field_offsets(const Bytes& hello) {
  std::vector<std::size_t> at = {4, 8};
  if (hello.size() < 44) return at;
  std::size_t pos = 43;
  pos += 1 + hello[pos];  // session id
  if (pos + 2 > hello.size()) return at;
  at.push_back(pos + 1);
  pos += 2 + (static_cast<std::size_t>(hello[pos]) << 8 | hello[pos + 1]);  // cipher suites
  if (pos >= hello.size()) return at;
  pos += 1 + hello[pos];  // compression methods
  if (pos + 2 > hello.size()) return at;
  at.push_back(pos + 1);
  if (pos + 6 <= hello.size()) at.push_back(pos + 5);
  return at;
}

/// The corpus: every TLS probe of two domains and every edge hello, plus
/// seeded truncations, length-field corruptions and byte flips of each,
/// and every truncation of the Normal hello.
inline std::vector<Bytes> hello_corpus() {
  std::vector<Bytes> base;
  for (const char* domain : {"www.blocked.example", "WwW.ExAmPlE.OrG"}) {
    base.push_back(fuzz::normal_tls_probe(domain).payload);
    for (const fuzz::FuzzProbe& p : fuzz::tls_probes(domain)) base.push_back(p.payload);
  }
  for (Bytes& b : edge_hellos()) base.push_back(std::move(b));
  std::vector<Bytes> corpus = base;
  Rng rng(0x71c5);
  for (const Bytes& b : base) {
    for (int k = 0; k < 2; ++k) corpus.emplace_back(b.begin(), b.begin() + rng.index(b.size() + 1));
    for (std::size_t at : length_field_offsets(b)) {
      if (at >= b.size()) continue;
      for (int delta : {-1, 1}) {
        Bytes m = b;
        m[at] = static_cast<std::uint8_t>(m[at] + delta);
        corpus.push_back(std::move(m));
      }
    }
    if (!b.empty()) {
      Bytes m = b;
      m[rng.index(m.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
      corpus.push_back(std::move(m));
    }
  }
  const Bytes& normal = base.front();
  for (std::size_t n = 0; n < normal.size(); ++n) corpus.emplace_back(normal.begin(), normal.begin() + n);
  return corpus;
}

}  // namespace cen::testing_tls

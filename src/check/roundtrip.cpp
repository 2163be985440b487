// Round-trip engine: structure-aware mutational fuzzing of every parse ∘
// serialize pair in the codebase.
//
// Two contracts are checked per codec:
//   clean     a randomly generated, structurally valid value must survive
//             serialize → parse → serialize byte-identically (or, for the
//             JSON report codecs, reach a fixed point after one decode);
//   mutated   after `budget` random byte mutations, parse must either
//             throw ParseError or produce a value whose re-serialization
//             re-parses to the same bytes (serialize ∘ parse idempotent —
//             no silent divergence, no crash, ever).
#include <optional>
#include <string>
#include <vector>

#include "censor/device.hpp"
#include "check/engines.hpp"
#include "core/bytes.hpp"
#include "core/json.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/tls.hpp"
#include "net/udp.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"

namespace cen::check {

namespace {

using net::Ipv4Address;

std::string hex_preview(BytesView b, std::size_t limit = 24) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < b.size() && i < limit; ++i) {
    out.push_back(kHex[b[i] >> 4]);
    out.push_back(kHex[b[i] & 0xf]);
  }
  if (b.size() > limit) out += "...";
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.uniform(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

std::string random_hostname(Rng& rng) {
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  const std::size_t labels = 1 + rng.uniform(3);
  for (std::size_t l = 0; l < labels; ++l) {
    if (l > 0) out += '.';
    const std::size_t len = 1 + rng.uniform(12);
    for (std::size_t i = 0; i < len; ++i) {
      out += kChars[rng.uniform(sizeof(kChars) - 1)];
    }
  }
  return out;
}

Ipv4Address random_ip(Rng& rng) {
  return Ipv4Address(static_cast<std::uint32_t>(rng.next() >> 32));
}

/// Apply `budget` random byte-level mutations (bit flips, byte rewrites,
/// truncation, insertion, deletion) in place.
void mutate(Bytes& b, Rng& rng, int budget) {
  for (int i = 0; i < budget; ++i) {
    if (b.empty()) {
      b.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
      continue;
    }
    switch (rng.uniform(5)) {
      case 0:  // flip one bit
        b[rng.index(b.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
        break;
      case 1:  // rewrite one byte
        b[rng.index(b.size())] = static_cast<std::uint8_t>(rng.uniform(256));
        break;
      case 2:  // truncate the tail
        b.resize(rng.index(b.size()) + 1);
        break;
      case 3:  // insert one byte
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(rng.uniform(b.size() + 1)),
                 static_cast<std::uint8_t>(rng.uniform(256)));
        break;
      case 4:  // delete one byte
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(rng.index(b.size())));
        break;
    }
  }
}

/// The mutated-bytes contract for a byte codec: `reserialize(m)` returns
/// the re-serialization of parse(m) (or nullopt if parse threw
/// ParseError). Any other exception, or a re-serialization that fails to
/// re-parse to the same bytes, is a failure.
template <typename Reserialize>
void check_mutation_contract(CaseContext& ctx, std::string_view target, Bytes m,
                             const Reserialize& reserialize) {
  mutate(m, ctx.rng, ctx.budget);
  std::optional<Bytes> b2;
  try {
    b2 = reserialize(BytesView(m));
  } catch (const ParseError&) {
    ctx.expect(true, target, "");  // clean rejection
    return;
  } catch (const std::exception& e) {
    ctx.fail(target, std::string("non-ParseError exception on mutated input: ") +
                         e.what() + " input=" + hex_preview(m));
    return;
  }
  if (!b2.has_value()) {
    ctx.expect(true, target, "");
    return;
  }
  try {
    std::optional<Bytes> b3 = reserialize(BytesView(*b2));
    ctx.expect(b3.has_value() && *b3 == *b2, target,
               "serialize-parse not idempotent on mutated input; input=" +
                   hex_preview(m) + " first=" + hex_preview(*b2));
  } catch (const std::exception& e) {
    ctx.fail(target, std::string("re-parse of own serialization threw: ") + e.what() +
                         " bytes=" + hex_preview(*b2));
  }
}

// ---------------------------------------------------------------- IPv4 --

net::Ipv4Header random_ipv4(Rng& rng) {
  net::Ipv4Header h;
  h.tos = static_cast<std::uint8_t>(rng.uniform(256));
  h.total_length = static_cast<std::uint16_t>(20 + rng.uniform(1480));
  h.identification = static_cast<std::uint16_t>(rng.uniform(65536));
  h.flags = static_cast<std::uint8_t>(rng.uniform(8));
  h.fragment_offset = static_cast<std::uint16_t>(rng.uniform(0x2000));
  h.ttl = static_cast<std::uint8_t>(rng.uniform(256));
  const net::IpProto protos[] = {net::IpProto::kIcmp, net::IpProto::kTcp,
                                 net::IpProto::kUdp};
  h.protocol = protos[rng.uniform(3)];
  h.src = random_ip(rng);
  h.dst = random_ip(rng);
  return h;
}

void check_ipv4(CaseContext& ctx) {
  net::Ipv4Header h = random_ipv4(ctx.rng);
  const Bytes b1 = h.serialize();
  ctx.expect(b1.size() == 20, "roundtrip/ipv4", "header serialized to " +
                                                    std::to_string(b1.size()) + " bytes");
  try {
    ByteReader r(b1);
    net::Ipv4Header p = net::Ipv4Header::parse(r);
    ctx.expect(p == h, "roundtrip/ipv4",
               "parse(serialize(h)) != h for " + hex_preview(b1));
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/ipv4", std::string("parse of own serialization threw: ") + e.what());
  }
  check_mutation_contract(ctx, "roundtrip/ipv4-mutated", b1, [](BytesView m) {
    ByteReader r(m);
    return net::Ipv4Header::parse(r).serialize();
  });
}

// ----------------------------------------------------------------- TCP --

net::TcpHeader random_tcp(Rng& rng, bool with_options) {
  net::TcpHeader h;
  h.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
  h.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
  h.seq = static_cast<std::uint32_t>(rng.next());
  h.ack = static_cast<std::uint32_t>(rng.next());
  h.flags = static_cast<std::uint8_t>(rng.uniform(64));
  h.window = static_cast<std::uint16_t>(rng.uniform(65536));
  h.urgent = static_cast<std::uint16_t>(rng.uniform(65536));
  if (with_options) {
    // Cap the generated wire size at 40 bytes (the 4-bit offset ceiling);
    // oversize lists are exercised separately and must throw.
    std::size_t wire = 0;
    const std::size_t n = rng.uniform(4);
    for (std::size_t i = 0; i < n; ++i) {
      net::TcpOption o;
      switch (rng.uniform(5)) {
        case 0: o = net::TcpOption::mss(static_cast<std::uint16_t>(rng.uniform(65536))); break;
        case 1: o = net::TcpOption::window_scale(static_cast<std::uint8_t>(rng.uniform(15))); break;
        case 2: o = net::TcpOption::sack_permitted(); break;
        case 3: o = net::TcpOption::nop(); break;
        default:
          o.kind = static_cast<std::uint8_t>(5 + rng.uniform(250));
          o.data = random_bytes(rng, 8);
          break;
      }
      const std::size_t cost = (o.kind == 1) ? 1 : 2 + o.data.size();
      if (wire + cost > 36) break;  // leave room for padding
      wire += cost;
      h.options.push_back(std::move(o));
    }
  }
  return h;
}

void check_tcp(CaseContext& ctx) {
  net::TcpHeader h = random_tcp(ctx.rng, true);
  Bytes b1;
  try {
    b1 = h.serialize();
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/tcp", std::string("serialize of in-range options threw: ") + e.what());
    return;
  }
  try {
    ByteReader r(b1);
    net::TcpHeader p = net::TcpHeader::parse(r);
    const Bytes b2 = p.serialize();
    ctx.expect(b2 == b1, "roundtrip/tcp",
               "serialize-parse-serialize diverged for " + hex_preview(b1, 60));
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/tcp", std::string("parse of own serialization threw: ") + e.what());
  }

  // Oversize option lists must throw, not wrap the 4-bit data offset.
  net::TcpHeader big = random_tcp(ctx.rng, false);
  for (int i = 0; i < 30; ++i) {
    big.options.push_back(net::TcpOption::mss(1460));  // 4 bytes each
  }
  bool threw = false;
  try {
    (void)big.serialize();
  } catch (const ParseError&) {
    threw = true;
  }
  ctx.expect(threw, "roundtrip/tcp-oversize",
             "120-byte option list serialized without throwing");

  check_mutation_contract(ctx, "roundtrip/tcp-mutated", b1, [](BytesView m) {
    ByteReader r(m);
    return net::TcpHeader::parse(r).serialize();
  });
}

// ----------------------------------------------------------------- UDP --

void check_udp(CaseContext& ctx) {
  net::UdpDatagram d = net::make_udp_datagram(
      random_ip(ctx.rng), random_ip(ctx.rng),
      static_cast<std::uint16_t>(ctx.rng.uniform(65536)),
      static_cast<std::uint16_t>(ctx.rng.uniform(65536)), random_bytes(ctx.rng, 64),
      static_cast<std::uint8_t>(1 + ctx.rng.uniform(255)));
  const Bytes b1 = d.serialize();
  try {
    net::UdpDatagram p = net::UdpDatagram::parse(b1);
    const Bytes b2 = p.serialize();
    ctx.expect(b2 == b1, "roundtrip/udp",
               "serialize-parse-serialize diverged for " + hex_preview(b1, 40));
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/udp", std::string("parse of own serialization threw: ") + e.what());
  }
  check_mutation_contract(ctx, "roundtrip/udp-mutated", b1, [](BytesView m) {
    return net::UdpDatagram::parse(m).serialize();
  });
}

// ---------------------------------------------------------------- ICMP --

net::Packet random_packet(Rng& rng, bool with_options) {
  net::Packet p = net::make_tcp_packet(
      random_ip(rng), random_ip(rng), static_cast<std::uint16_t>(rng.uniform(65536)),
      static_cast<std::uint16_t>(rng.uniform(65536)),
      static_cast<std::uint8_t>(rng.uniform(64)), static_cast<std::uint32_t>(rng.next()),
      static_cast<std::uint32_t>(rng.next()), random_bytes(rng, 120),
      static_cast<std::uint8_t>(1 + rng.uniform(64)));
  if (with_options) p.tcp = random_tcp(rng, true);
  return p;
}

void check_icmp(CaseContext& ctx) {
  const net::Packet probe = random_packet(ctx.rng, false);
  const Bytes full = probe.serialize();
  const net::QuotePolicy policy = ctx.rng.chance(0.5) ? net::QuotePolicy::kRfc792
                                                      : net::QuotePolicy::kRfc1812Full;
  const Ipv4Address router = random_ip(ctx.rng);
  const net::IcmpTimeExceeded q = net::IcmpTimeExceeded::make(router, full, policy);
  const std::size_t want = std::min(net::quote_limit(policy), full.size());
  ctx.expect(q.quoted.size() == want, "roundtrip/icmp-quote-len",
             "quote is " + std::to_string(q.quoted.size()) + " bytes, want " +
                 std::to_string(want));
  ctx.expect(std::equal(q.quoted.begin(), q.quoted.end(), full.begin()),
             "roundtrip/icmp-quote-prefix",
             "quoted bytes are not a prefix of the original datagram");
  try {
    const net::IcmpTimeExceeded p = net::IcmpTimeExceeded::parse(router, q.serialize());
    ctx.expect(p.quoted == q.quoted && p.router == router, "roundtrip/icmp",
               "ICMP serialize-parse did not preserve the quote");
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/icmp", std::string("parse of own serialization threw: ") + e.what());
  }
}

// --------------------------------------------------- Packet / quoting --

void check_packet_prefix(CaseContext& ctx) {
  const net::Packet p = random_packet(ctx.rng, false);
  const Bytes full = p.serialize();
  Bytes prefix;
  const std::size_t len = 28 + ctx.rng.uniform(full.size() - 28 + 1);
  p.serialize_prefix(prefix, len);
  ctx.expect(prefix.size() == std::min(len, full.size()), "roundtrip/packet-prefix",
             "serialize_prefix produced " + std::to_string(prefix.size()) +
                 " bytes for cap " + std::to_string(len));
  ctx.expect(std::equal(prefix.begin(), prefix.end(), full.begin()),
             "roundtrip/packet-prefix",
             "serialize_prefix is not a prefix of serialize()");

  bool complete = false;
  try {
    const net::Packet q = net::Packet::parse_quoted(prefix, complete);
    ctx.expect(q.ip.src == p.ip.src && q.ip.dst == p.ip.dst, "roundtrip/packet-quoted",
               "quoted parse lost IP addresses");
    ctx.expect(q.tcp.src_port == p.tcp.src_port && q.tcp.dst_port == p.tcp.dst_port &&
                   q.tcp.seq == p.tcp.seq,
               "roundtrip/packet-quoted", "quoted parse lost ports/seq at len " +
                                              std::to_string(prefix.size()));
    const std::size_t n = prefix.size();
    if (n >= 32) {
      ctx.expect(q.tcp.ack == p.tcp.ack, "roundtrip/packet-quoted-ack",
                 "ack not recovered from a " + std::to_string(n) + "-byte quote");
    }
    if (n >= 34) {
      ctx.expect(q.tcp.flags == p.tcp.flags, "roundtrip/packet-quoted-flags",
                 "flags not recovered from a " + std::to_string(n) + "-byte quote");
    }
    if (n >= 36) {
      ctx.expect(q.tcp.window == p.tcp.window, "roundtrip/packet-quoted-window",
                 "window not recovered from a " + std::to_string(n) + "-byte quote");
    }
    if (n >= 40) {
      ctx.expect(complete, "roundtrip/packet-quoted-complete",
                 "full 20-byte TCP header quoted but tcp_complete is false");
    }
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/packet-quoted",
             std::string("parse_quoted threw on a valid quote prefix: ") + e.what());
  }
}

// ----------------------------------------------------------------- DNS --

net::DnsMessage random_dns(CaseContext& ctx) {
  net::DnsMessage m;
  m.id = static_cast<std::uint16_t>(ctx.rng.uniform(65536));
  m.is_response = ctx.rng.chance(0.5);
  m.recursion_desired = ctx.rng.chance(0.5);
  m.recursion_available = ctx.rng.chance(0.5);
  m.authoritative = ctx.rng.chance(0.3);
  const net::DnsRcode rcodes[] = {net::DnsRcode::kNoError, net::DnsRcode::kFormErr,
                                  net::DnsRcode::kServFail, net::DnsRcode::kNxDomain,
                                  net::DnsRcode::kRefused};
  m.rcode = rcodes[ctx.rng.uniform(5)];
  const std::size_t nq = 1 + ctx.rng.uniform(2);
  for (std::size_t i = 0; i < nq; ++i) {
    net::DnsQuestion q;
    q.qname = random_hostname(ctx.rng);
    q.qtype = static_cast<std::uint16_t>(1 + ctx.rng.uniform(16));
    m.questions.push_back(std::move(q));
  }
  const std::size_t na = ctx.rng.uniform(3);
  for (std::size_t i = 0; i < na; ++i) {
    net::DnsAnswer a;
    a.name = random_hostname(ctx.rng);
    a.type = static_cast<std::uint16_t>(1 + ctx.rng.uniform(16));
    a.ttl = static_cast<std::uint32_t>(ctx.rng.uniform(86400));
    a.address = random_ip(ctx.rng);
    m.answers.push_back(std::move(a));
  }
  return m;
}

void check_dns(CaseContext& ctx) {
  const net::DnsMessage m = random_dns(ctx);
  const Bytes b1 = m.serialize();
  try {
    const net::DnsMessage p = net::DnsMessage::parse(b1);
    const Bytes b2 = p.serialize();
    ctx.expect(b2 == b1, "roundtrip/dns",
               "serialize-parse-serialize diverged for " + hex_preview(b1, 48));
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/dns", std::string("parse of own serialization threw: ") + e.what());
  }

  // RFC 1035 compression: an answer name pointing back at the question
  // name (offset 12) must decode to the same name.
  {
    const std::string name = random_hostname(ctx.rng);
    ByteWriter w;
    w.u16(0x1234);
    w.u16(0x8180);
    w.u16(1);  // QD
    w.u16(1);  // AN
    w.u16(0);
    w.u16(0);
    w.raw(net::encode_dns_name(name));
    w.u16(1);
    w.u16(1);
    w.u16(0xc00c);  // pointer to offset 12 (the question name)
    w.u16(1);
    w.u16(1);
    w.u32(300);
    w.u16(4);
    w.u32(random_ip(ctx.rng).value());
    try {
      const net::DnsMessage p = net::DnsMessage::parse(std::move(w).take());
      ctx.expect(p.answers.size() == 1 && p.answers[0].name == name,
                 "roundtrip/dns-pointer",
                 "compression pointer decoded to '" +
                     (p.answers.empty() ? std::string("<none>") : p.answers[0].name) +
                     "', want '" + name + "'");
    } catch (const std::exception& e) {
      ctx.fail("roundtrip/dns-pointer",
               std::string("pointer message failed to parse: ") + e.what());
    }
  }

  // A self-referencing pointer must terminate with ParseError, not loop.
  {
    ByteWriter w;
    w.u16(0x1234);
    w.u16(0x0100);
    w.u16(1);
    w.u16(0);
    w.u16(0);
    w.u16(0);
    w.u16(0xc00c);  // qname: pointer to itself (offset 12)
    w.u16(1);
    w.u16(1);
    bool threw = false;
    try {
      (void)net::DnsMessage::parse(std::move(w).take());
    } catch (const ParseError&) {
      threw = true;
    }
    ctx.expect(threw, "roundtrip/dns-pointer-loop",
               "self-referencing compression pointer did not throw");
  }

  check_mutation_contract(ctx, "roundtrip/dns-mutated", b1, [](BytesView m2) {
    return net::DnsMessage::parse(m2).serialize();
  });
}

// ---------------------------------------------------------------- HTTP --

void check_http(CaseContext& ctx) {
  // Structural differential: serialize() and serialize_into() must agree
  // byte-for-byte on arbitrary (even invalid) field content.
  net::HttpRequest req;
  static constexpr const char* kMethods[] = {"GET", "GE", "get", "POST", "HEAD", ""};
  static constexpr const char* kDelims[] = {"\r\n", "\n", "\r", ""};
  static constexpr const char* kHostWords[] = {"Host: ", "HOST: ", "Host:", "H0st: ",
                                               "Host ", ""};
  req.method = kMethods[ctx.rng.uniform(6)];
  req.path = "/" + random_hostname(ctx.rng);
  req.version = ctx.rng.chance(0.8) ? "HTTP/1.1" : "HtTP/9.9";
  req.request_line_delim = kDelims[ctx.rng.uniform(4)];
  req.host_word = kHostWords[ctx.rng.uniform(6)];
  req.host = random_hostname(ctx.rng);
  req.host_delim = kDelims[ctx.rng.uniform(4)];
  const std::size_t extra = ctx.rng.uniform(3);
  for (std::size_t i = 0; i < extra; ++i) {
    req.extra_headers.emplace_back("X-" + random_hostname(ctx.rng),
                                   random_hostname(ctx.rng));
  }
  const std::string s1 = req.serialize();
  Bytes buf;
  req.serialize_into(buf);
  ctx.expect(s1 == std::string(buf.begin(), buf.end()), "roundtrip/http-differential",
             "serialize() and serialize_into() disagree for method='" + req.method +
                 "' delim=" + std::to_string(req.request_line_delim.size()));

  // A well-formed request must parse back to its own components.
  net::HttpRequest good = net::HttpRequest::get(random_hostname(ctx.rng));
  good.method = "POST";
  good.extra_headers.emplace_back("Accept", "*/*");
  const net::ParsedHttpRequest parsed = net::parse_http_request(good.serialize());
  ctx.expect(parsed.parse_ok && parsed.method == good.method &&
                 parsed.path == good.path && parsed.version == good.version,
             "roundtrip/http-parse", "well-formed request line not recovered");
  ctx.expect(parsed.host.has_value() && *parsed.host == good.host,
             "roundtrip/http-parse", "well-formed Host header not recovered");

  // The parser contract on arbitrary mutated soup: never throws, and a
  // recognized Host value never smuggles a raw CR.
  Bytes soup = to_bytes(s1);
  mutate(soup, ctx.rng, ctx.budget);
  try {
    const net::ParsedHttpRequest p =
        net::parse_http_request(std::string_view(reinterpret_cast<const char*>(soup.data()),
                                                 soup.size()));
    ctx.expect(!p.host.has_value() || p.host->find('\r') == std::string::npos,
               "roundtrip/http-host-cr",
               "parsed Host value contains a bare CR: " + hex_preview(soup, 48));
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/http-parse-mutated",
             std::string("parse_http_request threw: ") + e.what());
  }
}

// ----------------------------------------------------------------- TLS --

net::ClientHello random_hello(CaseContext& ctx, std::string* sni_out) {
  const std::string sni = random_hostname(ctx.rng);
  net::ClientHello hello = net::ClientHello::make(sni);
  *sni_out = sni;
  const net::TlsVersion versions[] = {net::TlsVersion::kTls10, net::TlsVersion::kTls11,
                                      net::TlsVersion::kTls12, net::TlsVersion::kTls13};
  hello.record_version = versions[ctx.rng.uniform(4)];
  hello.legacy_version = versions[ctx.rng.uniform(4)];
  for (auto& b : hello.random) b = static_cast<std::uint8_t>(ctx.rng.uniform(256));
  hello.session_id = random_bytes(ctx.rng, 32);
  if (ctx.rng.chance(0.5)) {
    hello.cipher_suites.clear();
    const std::size_t n = 1 + ctx.rng.uniform(20);
    for (std::size_t i = 0; i < n; ++i) {
      hello.cipher_suites.push_back(static_cast<std::uint16_t>(ctx.rng.uniform(65536)));
    }
  }
  if (ctx.rng.chance(0.5)) {
    std::vector<net::TlsVersion> sv;
    const std::size_t n = 1 + ctx.rng.uniform(4);
    for (std::size_t i = 0; i < n; ++i) sv.push_back(versions[ctx.rng.uniform(4)]);
    hello.set_supported_versions(sv);
  }
  if (ctx.rng.chance(0.3)) hello.add_padding(ctx.rng.uniform(64));
  if (ctx.rng.chance(0.3)) {
    net::TlsExtension ext;
    ext.type = static_cast<std::uint16_t>(ctx.rng.uniform(65536));
    ext.data = random_bytes(ctx.rng, 40);
    hello.extensions.push_back(std::move(ext));
  }
  return hello;
}

void check_tls(CaseContext& ctx) {
  std::string sni;
  const net::ClientHello hello = random_hello(ctx, &sni);
  const Bytes b1 = hello.serialize();
  Bytes buf;
  hello.serialize_into(buf);
  ctx.expect(buf == b1, "roundtrip/tls-differential",
             "serialize() and serialize_into() disagree: " + hex_preview(b1, 48));
  try {
    const net::ClientHello p = net::ClientHello::parse(b1);
    const Bytes b2 = p.serialize();
    ctx.expect(b2 == b1, "roundtrip/tls",
               "serialize-parse-serialize diverged: " + hex_preview(b1, 48));
    ctx.expect(p.sni().has_value() && *p.sni() == sni, "roundtrip/tls-sni",
               "SNI '" + sni + "' not recovered");
  } catch (const std::exception& e) {
    ctx.fail("roundtrip/tls", std::string("parse of own serialization threw: ") + e.what());
  }

  // Every proper truncation must throw (lengths are validated, so a cut
  // record can never parse as a shorter valid hello).
  {
    const std::size_t cut = ctx.rng.index(b1.size());
    bool threw = false;
    try {
      (void)net::ClientHello::parse(BytesView(b1).first(cut));
    } catch (const ParseError&) {
      threw = true;
    }
    ctx.expect(threw, "roundtrip/tls-truncated",
               "truncation to " + std::to_string(cut) + " bytes parsed without error");
  }

  // A malformed supported_versions extension degrades to the legacy
  // version, never a half-read list. Corrupt a valid extension three
  // ways that are each definitely inconsistent: length prefix off by
  // one (odd), truncated body, empty body.
  {
    net::ClientHello h2 = net::ClientHello::make(sni);
    for (auto& ext : h2.extensions) {
      if (ext.type == net::TlsExtensionType::kSupportedVersions) {
        switch (ctx.rng.uniform(3)) {
          case 0: ext.data[0] ^= 1; break;           // odd claimed length
          case 1: ext.data.pop_back(); break;        // body shorter than claimed
          default: ext.data.clear(); break;          // no length prefix at all
        }
      }
    }
    const std::vector<net::TlsVersion> sv = h2.supported_versions();
    ctx.expect(sv.size() == 1 && sv[0] == h2.legacy_version, "roundtrip/tls-sv-fallback",
               "malformed supported_versions did not fall back to legacy version");
  }

  // Oversize guards: fields that no longer fit their wire-length
  // prefixes must throw instead of emitting wrapped lengths.
  {
    net::ClientHello big = net::ClientHello::make(sni);
    big.session_id.assign(300, 0xab);
    bool threw = false;
    try {
      (void)big.serialize();
    } catch (const ParseError&) {
      threw = true;
    }
    ctx.expect(threw, "roundtrip/tls-oversize", "300-byte session id did not throw");
    bool threw_sv = false;
    try {
      net::ClientHello h3 = net::ClientHello::make(sni);
      h3.set_supported_versions(
          std::vector<net::TlsVersion>(200, net::TlsVersion::kTls12));
    } catch (const ParseError&) {
      threw_sv = true;
    }
    ctx.expect(threw_sv, "roundtrip/tls-oversize",
               "200-entry supported_versions list did not throw");
  }

  check_mutation_contract(ctx, "roundtrip/tls-mutated", b1, [](BytesView m) {
    return net::ClientHello::parse(m).serialize();
  });
}

// -------------------------------------------------------- JSON reports --

/// Decode → encode must reach a fixed point after one pass: c2 == c3.
/// (c1 == c2 is NOT required: emitters may drop per-request detail or
/// re-escape strings; what is forbidden is an unstable codec.)
template <typename FromJson, typename ToJson>
void check_report_fixed_point(CaseContext& ctx, std::string_view target,
                              const std::string& c1, const FromJson& from,
                              const ToJson& to) {
  ctx.expect(json_valid(c1), target, "emitted document is not valid JSON: " + c1);
  auto d1 = from(c1);
  if (!d1.has_value()) {
    ctx.fail(target, "emitted document failed to decode: " + c1);
    return;
  }
  const std::string c2 = to(*d1);
  auto d2 = from(c2);
  if (!d2.has_value()) {
    ctx.fail(target, "re-encoded document failed to decode: " + c2);
    return;
  }
  const std::string c3 = to(*d2);
  ctx.expect(c2 == c3, target, "decode-encode has no fixed point: '" + c2 +
                                   "' vs '" + c3 + "'");
}

/// Mutated report text must never crash the decoder; whatever decodes
/// must re-encode without throwing. Returns the mutated text.
template <typename FromJson, typename ToJson>
std::string check_report_mutation(CaseContext& ctx, std::string_view target,
                                  const std::string& c1, const FromJson& from,
                                  const ToJson& to) {
  Bytes soup = to_bytes(c1);
  mutate(soup, ctx.rng, ctx.budget);
  std::string text(soup.begin(), soup.end());
  try {
    auto d = from(text);
    ++ctx.checks;
    if (d.has_value()) (void)to(*d);
  } catch (const std::exception& e) {
    ctx.fail(target, std::string("decoder/encoder threw on mutated text: ") + e.what());
  }
  return text;
}

/// The fixed-point and mutation contracts for every report codec; returns
/// the mutated documents for check_json_core.
std::vector<std::string> check_reports(CaseContext& ctx) {
  std::vector<std::string> mutated;
  auto check = [&](std::string_view kind, const std::string& c1, const auto& from,
                   const auto& to) {
    const std::string target = "roundtrip/report-" + std::string(kind);
    check_report_fixed_point(ctx, target, c1, from, to);
    mutated.push_back(check_report_mutation(ctx, target + "-mutated", c1, from, to));
  };
  {
    auto to = [](const trace::CenTraceReport& x) { return report::to_json(x, false); };
    check("trace", to(random_trace_report(ctx.rng)),
          [](const std::string& t) { return report::trace_report_from_json(t); }, to);
  }
  {
    auto to = [](const fuzz::CenFuzzReport& x) { return report::to_json(x); };
    check("fuzz", to(random_fuzz_report(ctx.rng)),
          [](const std::string& t) { return report::fuzz_report_from_json(t); }, to);
  }
  {
    auto to = [](const probe::DeviceProbeReport& x) { return report::to_json(x); };
    check("probe", to(random_probe_report(ctx.rng)),
          [](const std::string& t) { return report::probe_report_from_json(t); }, to);
  }
  {
    auto to = [](const ambig::AmbigReport& x) { return report::to_json(x); };
    check("ambig", to(random_ambig_report(ctx.rng)),
          [](const std::string& t) { return report::ambig_report_from_json(t); }, to);
  }
  return mutated;
}

// ----------------------------------------------------------- core JSON --

void check_json_core(CaseContext& ctx, const std::vector<std::string>& mutated_reports) {
  // Escape property: for ARBITRARY bytes, quoting the escaped form must
  // yield a valid JSON string; for valid UTF-8 the parse must invert it.
  const Bytes raw = random_bytes(ctx.rng, 40);
  const std::string s(raw.begin(), raw.end());
  const std::string quoted = "\"" + json_escape(s) + "\"";
  ctx.expect(json_valid(quoted), "roundtrip/json-escape",
             "escaped string is not valid JSON: " + quoted);
  auto doc = json_parse(quoted);
  if (doc == nullptr || !doc->is_string()) {
    ctx.fail("roundtrip/json-escape", "escaped string failed to parse: " + quoted);
  } else if (utf8_valid(s)) {
    ctx.expect(doc->string == s, "roundtrip/json-escape",
               "escape-parse did not invert valid UTF-8 input");
  } else {
    // Invalid input is repaired; the repaired form must be valid UTF-8
    // and stable under a second escape-parse pass.
    ctx.expect(utf8_valid(doc->string), "roundtrip/json-escape",
               "repaired string is still invalid UTF-8");
    auto doc2 = json_parse("\"" + json_escape(doc->string) + "\"");
    ctx.expect(doc2 != nullptr && doc2->is_string() && doc2->string == doc->string,
               "roundtrip/json-escape", "replacement-character repair is unstable");
  }

  // Nesting depth is bounded at 64 for both the validator and the parser.
  const std::size_t depth = 1 + ctx.rng.uniform(100);
  std::string nested(depth, '[');
  nested.append(depth, ']');
  const bool parse_ok = json_parse(nested) != nullptr;
  const bool valid_ok = json_valid(nested);
  ctx.expect(parse_ok == (depth <= 64) && valid_ok == (depth <= 64),
             "roundtrip/json-depth",
             "depth " + std::to_string(depth) + ": parse=" + std::to_string(parse_ok) +
                 " valid=" + std::to_string(valid_ok));

  // The validator and the parser accept exactly the same documents.
  for (const std::string& t : mutated_reports) {
    ctx.expect(json_valid(t) == (json_parse(t) != nullptr), "roundtrip/json-valid-parse",
               "json_valid and json_parse disagree on: " + t);
  }
}

}  // namespace

// ------------------------------------------------ random report values --

trace::CenTraceReport random_trace_report(Rng& rng) {
  trace::CenTraceReport r;
  r.test_domain = random_hostname(rng);
  r.control_domain = random_hostname(rng);
  r.endpoint = random_ip(rng);
  r.protocol = static_cast<trace::ProbeProtocol>(rng.uniform(4));
  r.blocked = rng.chance(0.5);
  r.blocking_type = static_cast<trace::BlockingType>(rng.uniform(5));
  r.location = static_cast<trace::BlockingLocation>(rng.uniform(5));
  r.placement = static_cast<trace::DevicePlacement>(rng.uniform(3));
  r.blocking_hop_ttl = static_cast<int>(rng.uniform(22)) - 1;
  if (rng.chance(0.5)) r.blocking_hop_ip = random_ip(rng);
  if (rng.chance(0.4)) {
    geo::AsInfo as;
    as.asn = static_cast<std::uint32_t>(rng.uniform(70000));
    as.name = "AS-" + random_hostname(rng);
    as.country = rng.chance(0.5) ? "KZ" : "RU";
    r.blocking_as = as;
  }
  r.endpoint_hop_distance = static_cast<int>(rng.uniform(20)) - 1;
  r.ttl_copy_detected = rng.chance(0.3);
  if (rng.chance(0.3)) r.blockpage_vendor = random_hostname(rng);
  if (rng.chance(0.4)) r.injected_packet = random_packet(rng, false);
  const std::size_t diffs = rng.uniform(3);
  for (std::size_t i = 0; i < diffs; ++i) {
    trace::QuoteDiff d;
    d.router = random_ip(rng);
    d.parse_ok = rng.chance(0.9);
    d.rfc792_minimal = rng.chance(0.5);
    d.full_tcp_quoted = !d.rfc792_minimal;
    d.tos_changed = rng.chance(0.3);
    d.ip_flags_changed = rng.chance(0.3);
    d.ports_match = rng.chance(0.9);
    d.quoted_tos = static_cast<std::uint8_t>(rng.uniform(256));
    d.quoted_ip_flags = static_cast<std::uint8_t>(rng.uniform(8));
    d.quoted_ttl = static_cast<std::uint8_t>(rng.uniform(2));
    d.quoted_payload_bytes = rng.uniform(120);
    r.quote_diffs.push_back(d);
  }
  // Confidence values are drawn from a thousandth grid so %.6g emission
  // is exact and the fixed-point comparison is not at the mercy of
  // decimal-shortening ties.
  auto grid = [&] { return static_cast<double>(rng.uniform(1001)) / 1000.0; };
  r.confidence.overall = grid();
  r.confidence.response_agreement = grid();
  r.confidence.ttl_agreement = grid();
  r.confidence.control_path_stability = grid();
  r.confidence.icmp_rate_limited = rng.chance(0.2);
  r.confidence.path_churn = rng.chance(0.2);
  r.confidence.loss_recovered_probes = static_cast<int>(rng.uniform(10));
  const std::size_t hops = rng.uniform(5);
  for (std::size_t i = 0; i < hops; ++i) r.confidence.hop_confidence.push_back(grid());
  const std::size_t path = rng.uniform(5);
  for (std::size_t i = 0; i < path; ++i) {
    r.control_path.push_back(rng.chance(0.8)
                                 ? std::optional<Ipv4Address>(random_ip(rng))
                                 : std::nullopt);
  }
  r.degradation.mode = static_cast<trace::DegradationMode>(rng.uniform(4));
  r.degradation.icmp_answer_rate = grid();
  r.degradation.dead_channel_sweeps = static_cast<int>(rng.uniform(8));
  r.degradation.vantage_count = 1 + static_cast<int>(rng.uniform(4));
  r.degradation.tomography_observations = static_cast<int>(rng.uniform(40));
  r.degradation.tomography_solved = rng.chance(0.4);
  const std::size_t links = rng.uniform(4);
  for (std::size_t i = 0; i < links; ++i) {
    trace::BlamedLink link;
    link.ip_a = random_ip(rng);
    link.ip_b = random_ip(rng);
    link.confidence = grid();
    link.blocked_paths = static_cast<int>(rng.uniform(20));
    link.clean_paths = static_cast<int>(rng.uniform(20));
    r.degradation.candidate_links.push_back(link);
  }
  return r;
}

fuzz::CenFuzzReport random_fuzz_report(Rng& rng) {
  fuzz::CenFuzzReport r;
  r.endpoint = random_ip(rng);
  r.test_domain = random_hostname(rng);
  r.control_domain = random_hostname(rng);
  r.http_baseline_blocked = rng.chance(0.5);
  r.tls_baseline_blocked = rng.chance(0.5);
  const std::size_t n = rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i) {
    fuzz::FuzzMeasurement m;
    m.strategy = "strategy-" + std::to_string(rng.uniform(12));
    m.permutation = random_hostname(rng);
    m.https = rng.chance(0.5);
    m.test_result = static_cast<fuzz::RequestResult>(rng.uniform(5));
    m.control_result = static_cast<fuzz::RequestResult>(rng.uniform(5));
    m.outcome = static_cast<fuzz::FuzzOutcome>(rng.uniform(3));
    m.circumvented = rng.chance(0.3);
    m.baseline_failed = rng.chance(0.1);
    r.measurements.push_back(std::move(m));
  }
  r.total_requests = rng.uniform(200);
  r.skipped_strategies = rng.uniform(5);
  return r;
}

probe::DeviceProbeReport random_probe_report(Rng& rng) {
  probe::DeviceProbeReport r;
  r.ip = random_ip(rng);
  const std::size_t ports = rng.uniform(4);
  for (std::size_t i = 0; i < ports; ++i) {
    r.open_ports.push_back(static_cast<std::uint16_t>(1 + rng.uniform(65535)));
  }
  const std::size_t banners = rng.uniform(3);
  for (std::size_t i = 0; i < banners; ++i) {
    probe::BannerGrab g;
    g.port = static_cast<std::uint16_t>(1 + rng.uniform(65535));
    g.protocol = rng.chance(0.5) ? "http" : "ssh";
    g.banner = "banner " + random_hostname(rng);
    g.complete = rng.chance(0.8);
    g.attempts = static_cast<int>(1 + rng.uniform(3));
    r.banners.push_back(std::move(g));
  }
  if (rng.chance(0.4)) r.vendor = random_hostname(rng);
  if (rng.chance(0.5)) {
    censor::StackFingerprint s;
    s.synack_ttl = static_cast<std::uint8_t>(rng.uniform(256));
    s.synack_window = static_cast<std::uint16_t>(rng.uniform(65536));
    s.mss = static_cast<std::uint16_t>(rng.uniform(65536));
    s.sack_permitted = rng.chance(0.5);
    s.rst_ttl = static_cast<std::uint8_t>(rng.uniform(256));
    r.stack = s;
  }
  return r;
}

ambig::AmbigReport random_ambig_report(Rng& rng) {
  ambig::AmbigReport r;
  r.endpoint = random_ip(rng);
  r.test_domain = random_hostname(rng);
  r.control_domain = random_hostname(rng);
  r.baseline_blocked = rng.chance(0.5);
  r.endpoint_distance = static_cast<int>(rng.uniform(20)) - 1;
  r.insertion_ttl = static_cast<int>(rng.uniform(20)) - 1;
  const std::size_t n = rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i) {
    ambig::AmbigProbeResult p;
    p.name = "probe-" + random_hostname(rng);
    p.test_outcome = static_cast<ambig::ProbeOutcome>(rng.uniform(5));
    p.control_outcome = static_cast<ambig::ProbeOutcome>(rng.uniform(5));
    p.repetitions = 1 + static_cast<int>(rng.uniform(5));
    p.test_blocked_votes = static_cast<int>(rng.uniform(p.repetitions + 1));
    p.control_clean_votes = static_cast<int>(rng.uniform(p.repetitions + 1));
    p.discrepant = rng.chance(0.3);
    p.testable = rng.chance(0.9);
    r.probes.push_back(std::move(p));
  }
  r.total_probes_sent = rng.uniform(400);
  return r;
}

void run_roundtrip_case(CaseContext& ctx) {
  check_ipv4(ctx);
  check_tcp(ctx);
  check_udp(ctx);
  check_icmp(ctx);
  check_packet_prefix(ctx);
  check_dns(ctx);
  check_http(ctx);
  check_tls(ctx);
  check_json_core(ctx, check_reports(ctx));
}

}  // namespace cen::check

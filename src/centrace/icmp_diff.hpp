// Tracebox-style analysis of quoted packets inside ICMP Time Exceeded
// messages (paper §4.1 "Quoted packets in ICMP", §4.3).
//
// Routers quote part of the original datagram in their ICMP errors;
// comparing the quote against the packet actually sent reveals (a) how
// much the router quotes (RFC 792's 64 bits of transport header vs
// RFC 1812's full datagram) and (b) in-flight header rewrites — the paper
// finds 32.06% of quotes show a changed IP TOS and uses these deltas as
// clustering features.
#pragma once

#include <cstdint>
#include <optional>

#include "net/ipv4.hpp"
#include "net/packet.hpp"

namespace cen::trace {

struct QuoteDiff {
  net::Ipv4Address router;
  bool parse_ok = false;
  /// Quote carries ≤ 8 bytes of transport header (RFC 792 minimum).
  bool rfc792_minimal = false;
  /// Full TCP header (and possibly payload) present (RFC 1812 behaviour).
  bool full_tcp_quoted = false;
  bool tos_changed = false;
  bool ip_flags_changed = false;
  bool ports_match = true;       // sanity: the quote is for our probe
  std::uint8_t quoted_tos = 0;
  std::uint8_t quoted_ip_flags = 0;
  std::uint8_t quoted_ttl = 0;   // TTL at expiry (usually 0 or 1)
  std::size_t quoted_payload_bytes = 0;
};

/// Compare the sent probe against the quoted bytes from `router`.
QuoteDiff diff_quote(const net::PacketHeaders& sent, BytesView quoted, net::Ipv4Address router);

}  // namespace cen::trace

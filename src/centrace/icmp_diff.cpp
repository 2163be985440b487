#include "centrace/icmp_diff.hpp"

namespace cen::trace {

QuoteDiff diff_quote(const net::PacketHeaders& sent, BytesView quoted, net::Ipv4Address router) {
  QuoteDiff d;
  d.router = router;
  bool tcp_complete = false;
  net::Packet q;
  try {
    q = net::Packet::parse_quoted(quoted, tcp_complete);
  } catch (const ParseError&) {
    return d;
  }
  d.parse_ok = true;
  d.full_tcp_quoted = tcp_complete;
  // 20-byte IP header + 8 bytes of transport = the RFC 792 minimum quote.
  d.rfc792_minimal = quoted.size() <= 28;
  d.quoted_tos = q.ip.tos;
  d.quoted_ip_flags = q.ip.flags;
  d.quoted_ttl = q.ip.ttl;
  d.tos_changed = q.ip.tos != sent.ip.tos;
  d.ip_flags_changed = q.ip.flags != sent.ip.flags;
  d.ports_match =
      q.tcp.src_port == sent.tcp.src_port && q.tcp.dst_port == sent.tcp.dst_port;
  if (tcp_complete) d.quoted_payload_bytes = q.payload.size();
  return d;
}

}  // namespace cen::trace

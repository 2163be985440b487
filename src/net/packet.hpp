// Full simulated packet: IPv4 header + TCP header + application payload.
//
// A packet can be serialized to the exact byte string that would appear
// on the wire; ICMP quoting operates on those bytes (RFC 792 quotes the
// IP header plus 64 bits of payload; RFC 1812 routers quote as much as
// fits), and Tracebox-style diffing parses them back.
#pragma once

#include <cstdint>

#include "core/bytes.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"

namespace cen::net {

/// The IP and TCP headers of a packet, without its payload: what a
/// quote diff compares against.
struct PacketHeaders {
  Ipv4Header ip;
  TcpHeader tcp;
};

struct Packet {
  Ipv4Header ip;
  TcpHeader tcp;
  Bytes payload;
  /// Whether the TCP checksum verifies. The simulation does not carry real
  /// checksums; probes craft deliberately-corrupt segments by clearing this
  /// flag. A correct endpoint stack discards such a segment, while a DPI
  /// model with ReassemblyQuirks::validates_checksum == false still feeds
  /// it to the classifier. Not part of the serialized wire bytes; parse()
  /// yields the default (valid).
  bool checksum_ok = true;

  /// Serialize IP + TCP + payload, fixing up ip.total_length.
  Bytes serialize() const;
  /// Serialize into a reused buffer (cleared first, capacity kept).
  void serialize_into(Bytes& out) const;
  /// Serialize at most the first `max_len` wire bytes into a reused
  /// buffer. The IP total_length field still describes the *full* packet,
  /// exactly as in a truncated quote of the real datagram — this is the
  /// allocation-light path ICMP quoted-packet construction uses (quotes
  /// cap at 28/128 bytes, so large payloads are never copied).
  void serialize_prefix(Bytes& out, std::size_t max_len) const;
  /// Parse a full packet from bytes (IP proto must be TCP).
  static Packet parse(BytesView bytes);
  /// Parse possibly-truncated bytes, as quoted inside ICMP errors:
  /// always recovers the IP header; recovers as much of the TCP header
  /// and payload as present. Missing parts are zero/absent.
  static Packet parse_quoted(BytesView bytes, bool& tcp_complete);

  PacketHeaders headers() const { return {ip, tcp}; }
};

/// Build a TCP data packet with common defaults.
Packet make_tcp_packet(Ipv4Address src, Ipv4Address dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
                       std::uint32_t ack, Bytes payload, std::uint8_t ttl = 64);

/// make_tcp_packet into an existing packet: every header field is reset
/// to the same defaults, and the payload is copied into the packet's own
/// buffer, whose capacity is kept (a sender reusing one packet allocates
/// nothing once the buffer has grown).
void assign_tcp_packet(Packet& p, Ipv4Address src, Ipv4Address dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
                       std::uint32_t ack, BytesView payload, std::uint8_t ttl = 64);

}  // namespace cen::net

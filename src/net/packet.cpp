#include "net/packet.hpp"

#include <algorithm>
#include <limits>

namespace cen::net {

Bytes Packet::serialize() const {
  Bytes out;
  serialize_into(out);
  return out;
}

void Packet::serialize_into(Bytes& out) const {
  serialize_prefix(out, std::numeric_limits<std::size_t>::max());
}

void Packet::serialize_prefix(Bytes& out, std::size_t max_len) const {
  ByteWriter w(std::move(out));
  Ipv4Header hdr = ip;
  hdr.total_length =
      static_cast<std::uint16_t>(20 + tcp.wire_size() + payload.size());
  hdr.serialize_into(w);
  tcp.serialize_into(w);
  if (w.size() < max_len) {
    BytesView tail(payload);
    w.raw(tail.first(std::min(max_len - w.size(), tail.size())));
  }
  out = std::move(w).take();
  if (out.size() > max_len) out.resize(max_len);
}

Packet Packet::parse(BytesView bytes) {
  ByteReader r(bytes);
  Packet p;
  p.ip = Ipv4Header::parse(r);
  if (p.ip.protocol != IpProto::kTcp) throw ParseError("packet is not TCP");
  p.tcp = TcpHeader::parse(r);
  p.payload = r.raw(r.remaining());
  return p;
}

Packet Packet::parse_quoted(BytesView bytes, bool& tcp_complete) {
  ByteReader r(bytes);
  Packet p;
  p.ip = Ipv4Header::parse(r);
  tcp_complete = false;
  // RFC 792 routers quote only 8 bytes of the transport header: enough
  // for ports and sequence number, but not the full 20-byte TCP header.
  if (r.remaining() >= 8) {
    if (r.remaining() >= 20) {
      ByteReader probe(r.rest());
      try {
        p.tcp = TcpHeader::parse(probe);
        tcp_complete = true;
        r.skip(r.remaining() - probe.remaining());
        p.payload = r.raw(r.remaining());
        return p;
      } catch (const ParseError&) {
        // fall through to partial parse
      }
    }
    p.tcp.src_port = r.u16();
    p.tcp.dst_port = r.u16();
    p.tcp.seq = r.u32();
    // Recover the rest of the fixed header incrementally: quotes between
    // the RFC 792 minimum and a full header still carry the ack (12),
    // offset+flags (14) and window (16) bytes.
    if (r.remaining() >= 4) p.tcp.ack = r.u32();
    if (r.remaining() >= 2) {
      r.skip(1);  // data offset / reserved
      p.tcp.flags = r.u8();
    }
    if (r.remaining() >= 2) p.tcp.window = r.u16();
  }
  return p;
}

Packet make_tcp_packet(Ipv4Address src, Ipv4Address dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
                       std::uint32_t ack, Bytes payload, std::uint8_t ttl) {
  Packet p;
  assign_tcp_packet(p, src, dst, sport, dport, flags, seq, ack, {}, ttl);
  p.payload = std::move(payload);
  return p;
}

void assign_tcp_packet(Packet& p, Ipv4Address src, Ipv4Address dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
                       std::uint32_t ack, BytesView payload, std::uint8_t ttl) {
  p.ip = Ipv4Header{};
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.ttl = ttl;
  p.ip.protocol = IpProto::kTcp;
  p.tcp = TcpHeader{};
  p.tcp.src_port = sport;
  p.tcp.dst_port = dport;
  p.tcp.flags = flags;
  p.tcp.seq = seq;
  p.tcp.ack = ack;
  p.payload.assign(payload.begin(), payload.end());
  p.checksum_ok = true;
}

}  // namespace cen::net

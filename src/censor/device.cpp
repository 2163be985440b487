#include "censor/device.hpp"

#include <cstring>

#include "censor/dpi.hpp"
#include "core/strings.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"

namespace cen::censor {

std::string_view block_action_name(BlockAction a) {
  switch (a) {
    case BlockAction::kDrop: return "drop";
    case BlockAction::kRstInject: return "rst";
    case BlockAction::kFinInject: return "fin";
    case BlockAction::kBlockpage: return "blockpage";
  }
  return "?";
}

bool Device::payload_triggers_uncached(BytesView payload) const {
  if (payload.empty()) return false;
  if (looks_like_tls(payload)) {
    const std::optional<std::string_view> sni = dpi_parse_sni(payload, config_->tls_quirks);
    return sni && config_->sni_rules.matches(*sni);
  }
  if (net::looks_like_tcp_dns(payload)) {
    if (config_->dns_rules.empty()) return false;
    try {
      net::DnsMessage query = net::DnsMessage::parse_tcp(payload);
      return !query.is_response && !query.questions.empty() &&
             config_->dns_rules.matches(query.questions.front().qname);
    } catch (const ParseError&) {
      return false;
    }
  }
  const std::optional<HttpDpiResult> http =
      dpi_parse_http(as_text(payload), config_->http_quirks);
  if (!http) return false;
  const DomainRule* rule = config_->http_rules.first_match(http->host);
  if (rule == nullptr) return false;
  if (config_->http_quirks.url_includes_path && http->path != "/") return false;
  return true;
}

namespace {
std::uint64_t fnv1a(BytesView payload) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : payload) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

bool Device::payload_triggers(BytesView payload) const {
  if (payload.empty()) return false;
  // The verdict is a pure function of (payload bytes, config): safe to
  // memoize. Exact-bytes match — the hash only narrows the scan; memcmp
  // decides, so fault-mangled payload variants can never alias.
  auto same_bytes = [&](const DpiCacheEntry& e) {
    return e.len == payload.size() && std::memcmp(e.data, payload.data(), payload.size()) == 0;
  };
  // A sweep re-sends one payload: try the entry that answered last before
  // hashing at all.
  if (dpi_last_hit_ < dpi_cache_.size() && same_bytes(dpi_cache_[dpi_last_hit_])) {
    return dpi_cache_[dpi_last_hit_].triggers;
  }
  const std::uint64_t hash = fnv1a(payload);
  for (std::size_t i = 0; i < dpi_cache_.size(); ++i) {
    if (dpi_cache_[i].hash == hash && same_bytes(dpi_cache_[i])) {
      dpi_last_hit_ = i;
      return dpi_cache_[i].triggers;
    }
  }
  bool triggers = payload_triggers_uncached(payload);
  if (dpi_cache_.size() < kDpiCacheCap) {
    auto* copy = dpi_arena_.allocate_array<std::uint8_t>(payload.size());
    std::memcpy(copy, payload.data(), payload.size());
    dpi_last_hit_ = dpi_cache_.size();
    dpi_cache_.push_back(
        {hash, copy, static_cast<std::uint32_t>(payload.size()), triggers});
  }
  return triggers;
}

bool Device::message_complete(BytesView data) {
  if (data.empty()) return false;
  if (looks_like_tls(data)) {
    if (data.size() < 5) return false;
    const std::size_t record_len =
        static_cast<std::size_t>(data[3]) << 8 | static_cast<std::size_t>(data[4]);
    return data.size() >= 5 + record_len;
  }
  // A DNS-over-TCP message is complete exactly when its length prefix is
  // satisfied (looks_like_tcp_dns requires len == size - 2); a still-growing
  // one falls through to the plaintext rule and stays incomplete.
  if (net::looks_like_tcp_dns(data)) return true;
  // Plaintext/HTTP: the blank line ends the header block. Every payload the
  // request serializer emits carries one, so unsegmented traffic always
  // classifies inline (the historical behaviour).
  const std::string_view s = as_text(data);
  return s.find("\r\n\r\n") != std::string_view::npos ||
         s.find("\n\n") != std::string_view::npos;
}

namespace {

/// Length of the gap-free prefix of a window's coverage bitmap.
std::size_t contiguous_prefix(const std::vector<bool>& filled) {
  std::size_t n = 0;
  while (n < filled.size() && filled[n]) ++n;
  return n;
}

}  // namespace

bool Device::classify_segment(const net::Packet& packet) {
  if (assembled_bypass_) return payload_triggers(packet.payload);
  if (packet.payload.empty()) return false;

  const ReassemblyQuirks& rq = config_->reassembly;
  if (!packet.checksum_ok && rq.validates_checksum) return false;  // decoy discarded
  // No reassembly buffer: every segment is classified in isolation.
  if (!rq.reassembles) return payload_triggers(packet.payload);

  FlowKey flow{packet.ip.src.value(), packet.ip.dst.value(), packet.tcp.src_port,
               packet.tcp.dst_port};
  auto it = windows_.find(flow);
  if (it == windows_.end()) {
    // Hot path: a lone segment carrying a whole message is classified
    // inline and never touches member state (so the dirty_-gated reset
    // stays a no-op for unsegmented traffic).
    if (message_complete(packet.payload)) return payload_triggers(packet.payload);
    dirty_ = true;
    FlowWindow w;
    w.base_seq = packet.tcp.seq;
    w.base_ttl = packet.ip.ttl;
    w.data = packet.payload;
    w.filled.assign(packet.payload.size(), true);
    windows_.emplace(flow, std::move(w));
    return false;
  }

  FlowWindow& w = it->second;
  // TTL plausibility: a segment whose arriving TTL deviates from the
  // window opener's is discarded as a suspected insertion packet.
  if (rq.ttl_consistency_check) {
    const int diff = static_cast<int>(packet.ip.ttl) - static_cast<int>(w.base_ttl);
    if (diff > rq.ttl_slack || diff < -static_cast<int>(rq.ttl_slack)) return false;
  }

  const auto raw_off = static_cast<std::int64_t>(
      static_cast<std::int32_t>(packet.tcp.seq - w.base_seq));
  const std::size_t contig = contiguous_prefix(w.filled);
  // A device without an out-of-order buffer accepts only the segment that
  // lands exactly on the window edge; anything else desynchronizes it.
  if (!rq.buffers_out_of_order &&
      raw_off != static_cast<std::int64_t>(contig)) {
    return false;
  }
  std::int64_t off = raw_off;
  if (off < 0) {
    // Earlier bytes than any seen so far: re-anchor the window.
    const auto shift = static_cast<std::size_t>(-off);
    if (w.data.size() + shift > kMaxWindowBytes) {
      windows_.erase(it);
      return payload_triggers(packet.payload);
    }
    w.data.insert(w.data.begin(), shift, 0);
    w.filled.insert(w.filled.begin(), shift, false);
    w.base_seq = packet.tcp.seq;
    off = 0;
  }
  const std::size_t begin = static_cast<std::size_t>(off);
  const std::size_t end = begin + packet.payload.size();
  if (end > kMaxWindowBytes) {
    // Pathological growth: give up on the window, classify in isolation.
    windows_.erase(it);
    return payload_triggers(packet.payload);
  }
  if (end > w.data.size()) {
    w.data.resize(end, 0);
    w.filled.resize(end, false);
  }
  for (std::size_t i = 0; i < packet.payload.size(); ++i) {
    const std::size_t idx = begin + i;
    if (!w.filled[idx] || rq.overlap == OverlapPolicy::kLastWins) {
      w.data[idx] = packet.payload[i];
      w.filled[idx] = true;
    }
    // kFirstWins keeps the byte already buffered.
  }

  const std::size_t assembled = contiguous_prefix(w.filled);
  BytesView view(w.data.data(), assembled);
  if (!message_complete(view)) return false;
  // The message concluded: classify it and retire the window so the next
  // message on this flow starts fresh.
  const bool triggers = payload_triggers(view);
  windows_.erase(it);
  return triggers;
}

BlockAction Device::effective_action(const net::Packet& packet) const {
  if (config_->tls_action && looks_like_tls(packet.payload)) return *config_->tls_action;
  return config_->action;
}

std::vector<net::Packet> Device::craft_injections(const net::Packet& trigger,
                                                  BlockAction action) const {
  const InjectionProfile& prof = config_->injection;
  std::vector<net::Packet> out;

  auto base = [&](std::uint8_t flags) {
    net::Packet p;
    p.ip.src = trigger.ip.dst;  // spoofed as the endpoint
    p.ip.dst = trigger.ip.src;
    p.ip.ttl = prof.copy_ttl_from_trigger ? trigger.ip.ttl : prof.init_ttl;
    p.ip.identification = prof.ip_id;
    p.ip.flags = prof.ip_flags;
    p.ip.tos = prof.ip_tos;
    p.tcp.src_port = trigger.tcp.dst_port;
    p.tcp.dst_port = trigger.tcp.src_port;
    p.tcp.flags = flags;
    p.tcp.seq = trigger.tcp.ack;
    p.tcp.ack =
        trigger.tcp.seq + static_cast<std::uint32_t>(trigger.payload.size());
    p.tcp.window = prof.tcp_window;
    p.tcp.options = prof.tcp_options;
    return p;
  };

  switch (action) {
    case BlockAction::kDrop:
      break;
    case BlockAction::kRstInject:
      out.push_back(base(net::TcpFlags::kRst | net::TcpFlags::kAck));
      break;
    case BlockAction::kFinInject:
      out.push_back(base(net::TcpFlags::kFin | net::TcpFlags::kAck));
      break;
    case BlockAction::kBlockpage: {
      net::Packet page = base(net::TcpFlags::kPsh | net::TcpFlags::kAck);
      if (net::looks_like_tcp_dns(trigger.payload)) {
        // DNS trigger: the "page" is a spoofed answer (sinkhole A record,
        // or NXDOMAIN when no sinkhole is configured).
        try {
          net::DnsMessage query = net::DnsMessage::parse_tcp(trigger.payload);
          net::DnsMessage forged = config_->dns_sinkhole
                                       ? net::make_dns_response(query, *config_->dns_sinkhole)
                                       : net::make_dns_nxdomain(query);
          page.payload = forged.serialize_tcp();
          out.push_back(std::move(page));
        } catch (const ParseError&) {
        }
        break;
      }
      net::HttpResponse resp = net::HttpResponse::make(403, "Forbidden",
                                                       config_->blockpage_html);
      page.payload = to_bytes(resp.serialize());
      out.push_back(std::move(page));
      // Real blockpage injectors tear the connection down after the page.
      net::Packet rst = base(net::TcpFlags::kRst | net::TcpFlags::kAck);
      rst.tcp.seq = page.tcp.seq + static_cast<std::uint32_t>(page.payload.size());
      out.push_back(std::move(rst));
      break;
    }
  }
  return out;
}

Verdict Device::inspect(const net::Packet& packet, SimTime now) {
  Verdict v;

  PairKey pair{packet.ip.src.value(), packet.ip.dst.value()};
  auto residual = residual_until_.find(pair);
  bool residual_active = residual != residual_until_.end() && residual->second > now;

  bool content_trigger = classify_segment(packet);
  bool trigger = content_trigger || (residual_active && !packet.payload.empty());
  if (!trigger) return v;

  v.triggered = true;
  ++trigger_count_;
  dirty_ = true;
  if (config_->residual_block_ms > 0) {
    residual_until_[pair] = now + config_->residual_block_ms;
  }

  // Per-flow injection budget (§4.1: some middleboxes inject a limited
  // number of times per TCP connection).
  FlowKey flow{packet.ip.src.value(), packet.ip.dst.value(), packet.tcp.src_port,
               packet.tcp.dst_port};
  int& injected = flow_injections_[flow];
  bool budget_ok = config_->injection.max_injections_per_flow < 0 ||
                   injected < config_->injection.max_injections_per_flow;

  BlockAction action = effective_action(packet);
  if (action == BlockAction::kDrop) {
    // Drop-based censorship: only inline devices can actually remove the
    // packet; an on-path tap configured to "drop" cannot and the packet
    // sails through (the paper notes on-path devices must inject).
    v.drop = !config_->on_path;
    return v;
  }

  if (budget_ok) {
    v.inject_to_client = craft_injections(packet, action);
    ++injected;
  }
  // Inline injectors consume the original packet; taps cannot.
  v.drop = !config_->on_path;
  return v;
}

bool Device::udp_payload_triggers(BytesView payload) const {
  if (payload.empty() || config_->dns_rules.empty()) return false;
  try {
    net::DnsMessage query = net::DnsMessage::parse(payload);
    return !query.is_response && !query.questions.empty() &&
           config_->dns_rules.matches(query.questions.front().qname);
  } catch (const ParseError&) {
    return false;
  }
}

UdpVerdict Device::inspect_udp(const net::UdpDatagram& datagram, SimTime now) {
  UdpVerdict v;
  PairKey pair{datagram.ip.src.value(), datagram.ip.dst.value()};
  auto residual = residual_until_.find(pair);
  bool residual_active = residual != residual_until_.end() && residual->second > now;

  bool content_trigger = udp_payload_triggers(datagram.payload);
  if (!content_trigger && !(residual_active && !datagram.payload.empty())) return v;
  v.triggered = true;
  ++trigger_count_;
  dirty_ = true;
  if (config_->residual_block_ms > 0) {
    residual_until_[pair] = now + config_->residual_block_ms;
  }

  BlockAction action = config_->action;
  if (action == BlockAction::kDrop) {
    v.drop = !config_->on_path;
    return v;
  }
  // Any injecting action on UDP means forging an answer: there is no
  // connection to reset. The forged datagram carries the device's
  // injection fingerprint in its IP header.
  if (content_trigger) {
    try {
      net::DnsMessage query = net::DnsMessage::parse(datagram.payload);
      net::DnsMessage forged = config_->dns_sinkhole
                                   ? net::make_dns_response(query, *config_->dns_sinkhole)
                                   : net::make_dns_nxdomain(query);
      net::UdpDatagram reply;
      reply.ip.src = datagram.ip.dst;  // spoofed as the resolver
      reply.ip.dst = datagram.ip.src;
      reply.ip.ttl = config_->injection.copy_ttl_from_trigger ? datagram.ip.ttl
                                                             : config_->injection.init_ttl;
      reply.ip.identification = config_->injection.ip_id;
      reply.ip.flags = config_->injection.ip_flags;
      reply.udp.src_port = datagram.udp.dst_port;
      reply.udp.dst_port = datagram.udp.src_port;
      reply.payload = forged.serialize();
      v.inject_to_client.push_back(std::move(reply));
    } catch (const ParseError&) {
    }
  }
  v.drop = !config_->on_path;
  return v;
}

void Device::reset_state() {
  if (!dirty_) return;  // nothing touched since the last reset
  flow_injections_.clear();
  residual_until_.clear();
  windows_.clear();
  dirty_ = false;
}

}  // namespace cen::censor

#include "netsim/engine.hpp"
#include <algorithm>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/seed_salts.hpp"
#include "obs/observer.hpp"

namespace cen::sim {

namespace {

/// Reply packet from the endpoint toward the client, acking `pkt`.
net::Packet endpoint_reply(const net::Packet& pkt, std::uint8_t flags) {
  net::Packet r;
  r.ip.src = pkt.ip.dst;
  r.ip.dst = pkt.ip.src;
  r.ip.ttl = 64;
  r.tcp.src_port = pkt.tcp.dst_port;
  r.tcp.dst_port = pkt.tcp.src_port;
  r.tcp.flags = flags;
  r.tcp.seq = pkt.tcp.ack;
  r.tcp.ack = pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());
  r.tcp.window = 65535;
  return r;
}

/// Hand `ev` to the client: ahead of everything captured so far when it
/// arrives late, and twice when it is duplicated (the duplicate last).
/// Only the duplicate is a copy, taken from `ev` itself, never from an
/// element a later emplace could move.
template <typename Ev>
void deliver_event(Ev ev, bool late, bool duplicated, std::vector<Event>& events) {
  const auto at = late && !events.empty() ? events.begin() : events.end();
  if (!duplicated) {
    events.emplace(at, std::in_place_type<Ev>, std::move(ev));
    return;
  }
  events.emplace(at, std::in_place_type<Ev>, ev);
  events.emplace_back(std::in_place_type<Ev>, std::move(ev));
}
}  // namespace

Network::Network(Topology topology, geo::IpMetadataDb geodb, std::uint64_t seed)
    : topology_(std::move(topology)),
      geodb_(std::make_shared<const geo::IpMetadataDb>(std::move(geodb))),
      seed_(seed),
      rng_(seed),
      faults_(mix64(seed ^ salts::kFaultSeed)) {}

Network::Network(const Network& other, Topology topology, CloneTag)
    : topology_(std::move(topology)),
      geodb_(other.geodb_),        // immutable, shared by reference
      seed_(other.seed_),
      rng_(other.seed_),
      faults_(mix64(other.seed_ ^ salts::kFaultSeed)),
      endpoints_(other.endpoints_) {  // COW-shared (detached on mutation)
  faults_.set_plan(other.faults_.plan());
  attachments_.reserve(other.attachments_.size());
  devices_.reserve(other.devices_.size());
  device_nodes_.reserve(other.device_nodes_.size());
  for (std::size_t i = 0; i < other.devices_.size(); ++i) {
    // Fresh runtime state, shared immutable configuration.
    attach_device(other.device_nodes_[i],
                  std::make_shared<censor::Device>(other.devices_[i]->config_ptr()));
  }
}

std::unique_ptr<Network> Network::clone() const {
  // Publish the prototype's computed ECMP path lists as an immutable
  // snapshot, so every replica starts warm instead of deep-copying them.
  topology_.freeze_paths();
  // The copy shares the network, the frozen path lists and the network's
  // shortest-path tree cache: a tree any copy has built, or is building,
  // is never built again.
  return std::unique_ptr<Network>(new Network(*this, topology_, CloneTag{}));
}

std::unique_ptr<Network> Network::clone_with(Topology topology) const {
  return std::unique_ptr<Network>(new Network(*this, std::move(topology), CloneTag{}));
}

Network::EndpointTable& Network::mutable_endpoints() {
  if (endpoints_.use_count() > 1) {
    endpoints_ = std::make_shared<EndpointTable>(*endpoints_);
  }
  return *endpoints_;
}

const EndpointHost* Network::EndpointTable::find(std::uint32_t ip) const {
  auto it = std::lower_bound(ips.begin(), ips.end(), ip);
  if (it == ips.end() || *it != ip) return nullptr;
  return &hosts[slots[static_cast<std::size_t>(it - ips.begin())]];
}

bool Network::EndpointTable::insert(std::uint32_t ip, std::uint32_t slot) {
  auto at = ips.end();
  if (!ips.empty() && ip <= ips.back()) {
    at = std::lower_bound(ips.begin(), ips.end(), ip);
    if (*at == ip) return false;
  }
  slots.insert(slots.begin() + (at - ips.begin()), slot);
  ips.insert(at, ip);
  return true;
}

namespace {

void mix_ruleset(FingerprintBuilder& fp, const censor::RuleSet& rules) {
  fp.mix(rules.case_insensitive());
  fp.mix(static_cast<std::uint64_t>(rules.size()));
  for (const censor::DomainRule& r : rules.rules()) {
    fp.mix(r.domain);
    fp.mix(static_cast<std::uint64_t>(r.style));
  }
}

void mix_device(FingerprintBuilder& fp, const censor::DeviceConfig& c) {
  fp.mix(c.id);
  fp.mix(c.vendor);
  fp.mix(c.on_path);
  fp.mix(static_cast<std::uint64_t>(c.action));
  fp.mix(c.tls_action.has_value());
  if (c.tls_action) fp.mix(static_cast<std::uint64_t>(*c.tls_action));
  fp.mix(static_cast<std::uint64_t>(c.residual_block_ms));
  mix_ruleset(fp, c.http_rules);
  mix_ruleset(fp, c.sni_rules);
  mix_ruleset(fp, c.dns_rules);
  fp.mix(c.dns_sinkhole.has_value());
  if (c.dns_sinkhole) fp.mix(static_cast<std::uint64_t>(c.dns_sinkhole->value()));
  fp.mix(static_cast<std::uint64_t>(c.http_quirks.method_allowlist.size()));
  for (const std::string& m : c.http_quirks.method_allowlist) fp.mix(m);
  fp.mix(c.http_quirks.method_case_insensitive);
  fp.mix(static_cast<std::uint64_t>(c.http_quirks.version_check));
  fp.mix(c.http_quirks.version_prefix_case_insensitive);
  fp.mix(static_cast<std::uint64_t>(c.http_quirks.host_word_check));
  fp.mix(c.http_quirks.requires_crlf);
  fp.mix(c.http_quirks.url_includes_path);
  fp.mix(static_cast<std::uint64_t>(c.tls_quirks.parses_versions.size()));
  for (net::TlsVersion v : c.tls_quirks.parses_versions) {
    fp.mix(static_cast<std::uint64_t>(v));
  }
  fp.mix(static_cast<std::uint64_t>(c.tls_quirks.blind_cipher_suites.size()));
  for (std::uint16_t suite : c.tls_quirks.blind_cipher_suites) {
    fp.mix(static_cast<std::uint64_t>(suite));
  }
  fp.mix(c.tls_quirks.breaks_on_padding_extension);
  fp.mix(c.tls_quirks.inspects_client_certificate);
  fp.mix(c.reassembly.reassembles);
  fp.mix(static_cast<std::uint64_t>(c.reassembly.overlap));
  fp.mix(c.reassembly.buffers_out_of_order);
  fp.mix(c.reassembly.validates_checksum);
  fp.mix(c.reassembly.ttl_consistency_check);
  fp.mix(static_cast<std::uint64_t>(c.reassembly.ttl_slack));
  fp.mix(static_cast<std::uint64_t>(c.injection.init_ttl));
  fp.mix(c.injection.copy_ttl_from_trigger);
  fp.mix(static_cast<std::uint64_t>(c.injection.ip_id));
  fp.mix(static_cast<std::uint64_t>(c.injection.ip_flags));
  fp.mix(static_cast<std::uint64_t>(c.injection.ip_tos));
  fp.mix(static_cast<std::uint64_t>(c.injection.tcp_window));
  fp.mix(static_cast<std::uint64_t>(c.injection.tcp_options.size()));
  fp.mix(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(c.injection.max_injections_per_flow)));
  fp.mix(c.blockpage_html);
  fp.mix(c.mgmt_ip.has_value());
  if (c.mgmt_ip) fp.mix(static_cast<std::uint64_t>(c.mgmt_ip->value()));
  fp.mix(static_cast<std::uint64_t>(c.services.size()));
  for (const censor::ServiceBanner& s : c.services) {
    fp.mix(static_cast<std::uint64_t>(s.port));
    fp.mix(s.protocol);
    fp.mix(s.banner);
  }
  fp.mix(static_cast<std::uint64_t>(c.stack.synack_ttl));
  fp.mix(static_cast<std::uint64_t>(c.stack.synack_window));
  fp.mix(static_cast<std::uint64_t>(c.stack.mss));
  fp.mix(c.stack.sack_permitted);
  fp.mix(static_cast<std::uint64_t>(c.stack.rst_ttl));
}

std::uint64_t profile_digest(const EndpointProfile& p) {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(p.hosted_domains.size()));
  for (const std::string& d : p.hosted_domains) fp.mix(d);
  fp.mix(static_cast<std::uint64_t>(p.open_ports.size()));
  for (std::uint16_t port : p.open_ports) fp.mix(static_cast<std::uint64_t>(port));
  fp.mix(p.serves_subdomains);
  fp.mix(p.strict_http);
  fp.mix(p.reject_unknown_host);
  fp.mix(p.default_vhost_for_unknown);
  fp.mix(p.reject_unknown_sni);
  fp.mix(static_cast<std::uint64_t>(p.local_filter));
  mix_ruleset(fp, p.local_filter_rules);
  fp.mix(p.is_dns_resolver);
  fp.mix(static_cast<std::uint64_t>(p.dns_zone.size()));
  for (const auto& [name, addr] : p.dns_zone) {
    fp.mix(name);
    fp.mix(static_cast<std::uint64_t>(addr.value()));
  }
  fp.mix(p.static_payload.has_value());
  if (p.static_payload) fp.mix(*p.static_payload);
  return fp.digest();
}

/// The endpoint table as (ip, profile digest) per address, in ascending
/// ip order. Each host is digested once; the digest reads content only, so
/// a host holding an equal copy hashes like one holding the shared
/// template, and no pointer value reaches the result.
template <class EndpointTable>
std::uint64_t endpoints_digest(const EndpointTable& endpoints) {
  std::vector<std::uint64_t> digests;
  digests.reserve(endpoints.hosts.size());
  for (const EndpointHost& host : endpoints.hosts) digests.push_back(profile_digest(host.profile()));
  LaneFingerprint fp;
  fp.mix(static_cast<std::uint64_t>(endpoints.ips.size()));
  for (std::size_t i = 0; i < endpoints.ips.size(); ++i) {
    fp.mix(static_cast<std::uint64_t>(endpoints.ips[i]));
    fp.mix(digests[endpoints.slots[i]]);
  }
  return fp.digest();
}

}  // namespace

std::uint64_t Network::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(topology_.fingerprint());
  fp.mix(geodb_->fingerprint());
  fp.mix(seed_);
  fp.mix(endpoints_digest(*endpoints_));
  fp.mix(static_cast<std::uint64_t>(devices_.size()));
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    fp.mix(static_cast<std::uint64_t>(device_nodes_[i]));
    mix_device(fp, devices_[i]->config());
  }
  fp.mix(faults_.plan().fingerprint());
  return fp.digest();
}

void Network::reset_epoch(std::uint64_t substream_seed) {
  clock_.reset();
  rng_ = Rng(substream_seed);
  faults_.reset_state(mix64(substream_seed ^ salts::kFaultSeed));
  next_ephemeral_port_ = kEphemeralPortFloor;
  for (const auto& dev : devices_) dev->reset_state();
}

std::uint16_t Network::allocate_ephemeral_port() {
  std::uint16_t sport = next_ephemeral_port_++;
  if (next_ephemeral_port_ >= kEphemeralPortCeiling) {
    next_ephemeral_port_ = kEphemeralPortFloor;
  }
  return sport;
}

void Network::attach_device(NodeId at, std::shared_ptr<censor::Device> device) {
  attachments_[at].push_back({at, device});
  if (at >= has_device_.size()) has_device_.resize(static_cast<std::size_t>(at) + 1);
  has_device_[at] = true;
  devices_.push_back(std::move(device));
  device_nodes_.push_back(at);
}

void Network::replace_device_config(std::size_t index, censor::DeviceConfig config) {
  if (index >= devices_.size()) {
    throw std::out_of_range("replace_device_config: no such device");
  }
  auto replacement =
      std::make_shared<censor::Device>(std::move(config));
  // Swap the attachment entry at the device's deployment node so the
  // packet walk sees the new behaviour; deployment order (and therefore
  // devices() iteration order) is preserved.
  auto it = attachments_.find(device_nodes_[index]);
  if (it != attachments_.end()) {
    for (Attachment& a : it->second) {
      if (a.device == devices_[index]) {
        a.device = replacement;
        break;
      }
    }
  }
  devices_[index] = std::move(replacement);
}

void Network::add_endpoint(NodeId node, EndpointProfile profile) {
  EndpointTable& table = mutable_endpoints();
  if (table.insert(topology_.node_ip(node).value(),
                   static_cast<std::uint32_t>(table.hosts.size()))) {
    table.hosts.emplace_back(std::move(profile));
  }
}

void Network::add_endpoints(std::span<const NodeId> nodes,
                            std::span<const std::uint16_t> profile_of,
                            std::span<const std::shared_ptr<const EndpointProfile>> profiles) {
  if (nodes.size() != profile_of.size()) {
    throw std::invalid_argument("add_endpoints: nodes and profile_of differ in length");
  }
  if (!profile_of.empty() && *std::max_element(profile_of.begin(), profile_of.end()) >=
                                 profiles.size()) {
    throw std::out_of_range("add_endpoints: profile index past the profiles");
  }
  EndpointTable& table = mutable_endpoints();
  const auto base = static_cast<std::uint32_t>(table.hosts.size());
  for (const auto& profile : profiles) table.hosts.emplace_back(profile);
  table.ips.reserve(table.ips.size() + nodes.size());
  table.slots.reserve(table.slots.size() + nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    table.insert(topology_.node_ip(nodes[i]).value(), base + profile_of[i]);
  }
}

Connection Network::open_connection(NodeId client, net::Ipv4Address dst,
                                    std::uint16_t dst_port) {
  return Connection(this, client, dst, dst_port, allocate_ephemeral_port());
}

std::vector<censor::ServiceBanner> Network::scan_services(net::Ipv4Address ip) const {
  for (const auto& dev : devices_) {
    if (dev->config().mgmt_ip && *dev->config().mgmt_ip == ip) {
      return dev->config().services;
    }
  }
  // No device owns this IP: a plain router may still expose management
  // services with generic (unfingerprideable) banners.
  if (std::optional<NodeId> node = topology_.find_by_ip(ip)) {
    return topology_.node_services(*node);
  }
  return {};
}

std::optional<censor::StackFingerprint> Network::probe_stack(net::Ipv4Address ip) const {
  if (scan_services(ip).empty()) return std::nullopt;  // nothing answers SYNs
  for (const auto& dev : devices_) {
    if (dev->config().mgmt_ip && *dev->config().mgmt_ip == ip) {
      return dev->config().stack;
    }
  }
  // A plain router's management plane: generic network-OS stack.
  return censor::StackFingerprint{255, 4096, 536, false, 255};
}

void Network::reset_device_state() {
  for (const auto& dev : devices_) dev->reset_state();
}

void Network::set_observer(obs::Observer* obs) {
  obs_ = obs;
  ec_ = obs != nullptr ? &obs->engine() : nullptr;
  faults_.set_counters(obs != nullptr ? &obs->faults() : nullptr);
}

void Network::reverse_deliver(net::Packet pkt, const std::vector<NodeId>& path,
                              std::size_t from_index, std::vector<Event>& events) {
  // Return routing is symmetric — only the hop count matters for TTL —
  // but the fault layer still charges each traversed link's faults.
  const bool faulty = faults_.active();
  // Routers between the origin point and the client decrement the TTL of
  // the returning packet; a TTL-copying injection may die en route — the
  // mechanism behind the paper's "Past E" observations.
  for (std::size_t i = from_index; i-- > 1;) {
    if (faulty) {
      if (faults_.lose_on_link(path[i], path[i - 1])) return;
      faults_.mangle_payload(path[i], path[i - 1], pkt.payload);
    }
    if (pkt.ip.ttl == 0) return;
    pkt.ip.ttl -= 1;
    if (pkt.ip.ttl == 0) return;  // expired mid-return; no ICMP to a spoofed source
  }
  if (capture_ != nullptr) capture_->add(clock_.now(), pkt.serialize());
  // Access-link delivery faults: duplication hands the client two copies,
  // reordering delivers this packet "before" earlier-captured ones.
  bool duplicated = faulty && faults_.duplicate_delivery(path[1], path[0]);
  bool late = faulty && faults_.reorder_delivery(path[1], path[0]);
  deliver_event(TcpEvent{std::move(pkt)}, late, duplicated, events);
}

void Network::reverse_deliver_udp(net::UdpDatagram dgram, std::size_t from_index,
                                  std::vector<Event>& events) {
  // No path is threaded here, so the default link profile governs the
  // whole return trip (per-link overrides apply to TCP flows only).
  const bool faulty = faults_.active();
  for (std::size_t i = from_index; i-- > 1;) {
    if (faulty) {
      if (faults_.lose_on_link(kInvalidNode, kInvalidNode)) return;
      faults_.mangle_payload(kInvalidNode, kInvalidNode, dgram.payload);
    }
    if (dgram.ip.ttl == 0) return;
    dgram.ip.ttl -= 1;
    if (dgram.ip.ttl == 0) return;
  }
  if (capture_ != nullptr) capture_->add(clock_.now(), dgram.serialize());
  bool duplicated = faulty && faults_.duplicate_delivery(kInvalidNode, kInvalidNode);
  bool late = faulty && faults_.reorder_delivery(kInvalidNode, kInvalidNode);
  deliver_event(UdpEvent{std::move(dgram)}, late, duplicated, events);
}

Network::IcmpDelivery Network::icmp_delivery(const std::vector<NodeId>& path,
                                             std::size_t from_index) {
  IcmpDelivery d;
  for (std::size_t i = from_index; i-- > 1;) {
    if (faults_.lose_on_link(path[i], path[i - 1])) {
      d.delivered = false;
      return d;
    }
  }
  d.duplicated = faults_.duplicate_delivery(path[1], path[0]);
  d.late = faults_.reorder_delivery(path[1], path[0]);
  return d;
}

std::vector<Event> Network::send_udp(NodeId client, net::Ipv4Address dst,
                                     std::uint16_t dst_port, Bytes payload,
                                     std::uint8_t ttl) {
  std::vector<Event> events;
  if (ec_ != nullptr) ec_->udp_sends->inc();
  std::uint16_t sport = allocate_ephemeral_port();
  std::optional<NodeId> dst_node = topology_.find_by_ip(dst);
  if (!dst_node) return events;
  const net::Ipv4Address src_ip = topology_.node_ip(client);
  std::uint64_t flow_hash =
      mix64(static_cast<std::uint64_t>(src_ip.value()) << 32 | dst.value()) ^
      mix64(static_cast<std::uint64_t>(sport) << 16 | dst_port);
  const std::vector<NodeId>& path =
      topology_.route(client, *dst_node, flow_hash, faults_.flow_salt(clock_.now()));
  if (path.size() < 2) return events;
  const double transient_loss = faults_.plan().transient_loss;
  if (transient_loss > 0.0 && rng_.chance(transient_loss)) {
    if (ec_ != nullptr) ec_->transient_drops->inc();
    return events;
  }
  const bool faulty = faults_.active();

  net::UdpDatagram dgram =
      net::make_udp_datagram(src_ip, dst, sport, dst_port, std::move(payload), ttl);
  if (capture_ != nullptr) capture_->add(clock_.now(), dgram.serialize());

  for (std::size_t i = 1; i < path.size(); ++i) {
    NodeId nid = path[i];
    if (ec_ != nullptr) ec_->hops->inc();
    if (faulty) {
      if (faults_.lose_on_link(path[i - 1], nid)) return events;
      faults_.mangle_payload(path[i - 1], nid, dgram.payload);
    }
    if (has_device(nid)) {
      for (const Attachment& att : attachments_.find(nid)->second) {
        censor::UdpVerdict v = att.device->inspect_udp(dgram, clock_.now());
        if (ec_ != nullptr && !v.inject_to_client.empty()) {
          ec_->injections->inc(v.inject_to_client.size());
        }
        for (net::UdpDatagram& inj : v.inject_to_client) {
          reverse_deliver_udp(std::move(inj), i, events);
        }
        if (v.drop) return events;
      }
    }

    const RouterProfile& np = topology_.node_profile(nid);
    const net::Ipv4Address nip = topology_.node_ip(nid);
    bool is_endpoint_hop = (i + 1 == path.size());
    if (!is_endpoint_hop) {
      dgram.ip.ttl -= 1;
      if (dgram.ip.ttl == 0) {
        if (np.responds_icmp &&
            (!faulty || faults_.allow_icmp(nid, clock_.now()))) {
          IcmpDelivery d;
          if (faulty) d = icmp_delivery(path, i);
          if (d.delivered) {
            if (ec_ != nullptr) ec_->icmp_quotes->inc();
            net::IcmpTimeExceeded icmp = net::IcmpTimeExceeded::make(
                nip, dgram.serialize(), np.quote_policy);
            deliver_event(IcmpEvent{nip, std::move(icmp.quoted)}, d.late, d.duplicated,
                          events);
          }
        }
        return events;
      }
      if (np.rewrite_tos) dgram.ip.tos = *np.rewrite_tos;
      continue;
    }

    const EndpointHost* ep = endpoints_->find(dgram.ip.dst.value());
    if (ep == nullptr) return events;
    AppReply reply = ep->handle_udp_payload(dgram.payload, dst_port);
    if (reply.kind == AppReply::Kind::kData) {
      net::UdpDatagram answer = net::make_udp_datagram(
          dgram.ip.dst, dgram.ip.src, dst_port, sport, std::move(reply.data), 64);
      reverse_deliver_udp(std::move(answer), i, events);
    }
    return events;
  }
  return events;
}

bool Network::endpoint_payload_reply(const EndpointHost& ep, const net::Packet& pkt,
                                     const std::vector<NodeId>& path, std::size_t i,
                                     std::vector<Event>& events) {
  switch (ep.local_filter_verdict(pkt.payload)) {
    case LocalFilterAction::kDrop:
      return false;
    case LocalFilterAction::kRst: {
      reverse_deliver(endpoint_reply(pkt, net::TcpFlags::kRst | net::TcpFlags::kAck),
                      path, i, events);
      return false;
    }
    case LocalFilterAction::kNone:
      break;
  }

  AppReply reply = ep.handle_payload(pkt.payload);
  switch (reply.kind) {
    case AppReply::Kind::kNone:
      break;
    case AppReply::Kind::kData: {
      net::Packet data = endpoint_reply(pkt, net::TcpFlags::kPsh | net::TcpFlags::kAck);
      data.payload = std::move(reply.data);
      reverse_deliver(std::move(data), path, i, events);
      break;
    }
    case AppReply::Kind::kRst:
      reverse_deliver(endpoint_reply(pkt, net::TcpFlags::kRst | net::TcpFlags::kAck),
                      path, i, events);
      break;
  }
  return true;
}

void Network::deliver_assembled(net::Packet proto, Bytes assembled,
                                const std::vector<NodeId>& path,
                                std::vector<Event>& events) {
  if (path.size() < 2) return;
  const EndpointHost* ep = endpoints_->find(proto.ip.dst.value());
  if (ep == nullptr) return;
  proto.payload = std::move(assembled);
  endpoint_payload_reply(*ep, proto, path, path.size() - 1, events);
}

bool Network::forward_walk(net::Packet& pkt, const std::vector<NodeId>& path,
                           std::vector<Event>& events, bool payload_phase,
                           net::Packet* delivered) {
  if (path.size() < 2) return false;
  if (ec_ != nullptr) ec_->forward_walks->inc();
  const double transient_loss = faults_.plan().transient_loss;
  if (transient_loss > 0.0 && rng_.chance(transient_loss)) {
    if (ec_ != nullptr) ec_->transient_drops->inc();
    return false;
  }
  const bool faulty = faults_.active();

  for (std::size_t i = 1; i < path.size(); ++i) {
    NodeId nid = path[i];
    if (ec_ != nullptr) ec_->hops->inc();

    // Link faults strike before anything on the far side can inspect:
    // a lost packet is gone, a mangled payload is what the censor (and
    // eventually the endpoint) actually sees.
    if (faulty) {
      if (faults_.lose_on_link(path[i - 1], nid)) return false;
      faults_.mangle_payload(path[i - 1], nid, pkt.payload);
    }

    // Devices deployed on the link entering this node inspect first.
    if (has_device(nid)) {
      for (const Attachment& att : attachments_.find(nid)->second) {
        censor::Verdict v = att.device->inspect(pkt, clock_.now());
        if (ec_ != nullptr && !v.inject_to_client.empty()) {
          ec_->injections->inc(v.inject_to_client.size());
        }
        for (net::Packet& inj : v.inject_to_client) {
          reverse_deliver(std::move(inj), path, i, events);
        }
        if (v.drop) return false;
      }
    }

    const RouterProfile& np = topology_.node_profile(nid);
    const net::Ipv4Address nip = topology_.node_ip(nid);
    bool is_endpoint_hop = (i + 1 == path.size());

    if (!is_endpoint_hop) {
      // Router: decrement, possibly expire, possibly rewrite header bits.
      pkt.ip.ttl -= 1;
      if (pkt.ip.ttl == 0) {
        // Emission (rate limit consumes a token even if the reply later
        // dies on a return link), then return-trip delivery faults.
        IcmpDelivery d;
        if (np.responds_icmp &&
            (!faulty || faults_.allow_icmp(nid, clock_.now())) &&
            (!faulty || (d = icmp_delivery(path, i)).delivered)) {
          if (ec_ != nullptr) ec_->icmp_quotes->inc();
          // Quotes cap at 28/128 bytes, so only that prefix of the wire
          // bytes is serialized — into a reused scratch buffer, not a
          // fresh full-packet Bytes per expiring hop.
          pkt.serialize_prefix(quote_scratch_,
                               net::quote_limit(np.quote_policy));
          net::IcmpTimeExceeded icmp;
          icmp.router = nip;
          icmp.quoted.assign(quote_scratch_.begin(), quote_scratch_.end());
          if (capture_ != nullptr) {
            // Reconstruct the full ICMP datagram for the capture file.
            net::Ipv4Header ip;
            ip.protocol = net::IpProto::kIcmp;
            ip.src = nip;
            ip.dst = pkt.ip.src;
            Bytes icmp_bytes = icmp.serialize();
            ip.total_length = static_cast<std::uint16_t>(20 + icmp_bytes.size());
            ByteWriter w;
            w.raw(ip.serialize());
            w.raw(icmp_bytes);
            capture_->add(clock_.now(), std::move(w).take());
          }
          deliver_event(IcmpEvent{nip, std::move(icmp.quoted)}, d.late, d.duplicated,
                        events);
        }
        return false;
      }
      if (np.rewrite_tos) pkt.ip.tos = *np.rewrite_tos;
      if (np.clears_df_flag) pkt.ip.flags &= static_cast<std::uint8_t>(~0x2u);
      continue;
    }

    // Final hop: the endpoint host.
    const EndpointHost* host = endpoints_->find(pkt.ip.dst.value());
    if (host == nullptr) return false;  // no listener: silence
    const EndpointHost& ep = *host;

    if (!payload_phase) {
      // Handshake: SYN → SYN/ACK on open ports, RST on closed ones.
      const auto& ports = ep.profile().open_ports;
      bool open = std::find(ports.begin(), ports.end(), pkt.tcp.dst_port) != ports.end();
      if (!open) {
        net::Packet rst = endpoint_reply(pkt, net::TcpFlags::kRst | net::TcpFlags::kAck);
        rst.tcp.ack = pkt.tcp.seq + 1;
        reverse_deliver(std::move(rst), path, i, events);
        return false;
      }
      net::Packet synack = endpoint_reply(pkt, net::TcpFlags::kSyn | net::TcpFlags::kAck);
      synack.tcp.ack = pkt.tcp.seq + 1;
      reverse_deliver(std::move(synack), path, i, events);
      return true;
    }

    if (delivered != nullptr) {
      // Segment mode: the receiving TCP stack takes delivery; a segment
      // with a corrupt checksum never makes it past the stack, no matter
      // what any middlebox made of it en route.
      if (!pkt.checksum_ok) return false;
      *delivered = std::move(pkt);
      return true;
    }

    return endpoint_payload_reply(ep, pkt, path, i, events);
  }
  return false;
}

Connection::Connection(Network* net, NodeId client, net::Ipv4Address dst,
                       std::uint16_t dport, std::uint16_t sport)
    : net_(net), client_(client), dst_(dst), dport_(dport), sport_(sport) {
  static const std::vector<NodeId> kNoPath;
  path_ = &kNoPath;
  std::optional<NodeId> dst_node = net_->topology_.find_by_ip(dst);
  if (dst_node) {
    const net::Ipv4Address src_ip = net_->topology_.node_ip(client_);
    std::uint64_t flow_hash =
        mix64(static_cast<std::uint64_t>(src_ip.value()) << 32 | dst.value()) ^
        mix64(static_cast<std::uint64_t>(sport_) << 16 | dport_);
    // Route flapping: the fault layer's epoch salt can swap this flow
    // onto a different equal-cost path than the same 5-tuple rode before.
    path_ = &net_->topology_.route(client_, *dst_node, flow_hash,
                                   net_->faults_.flow_salt(net_->clock_.now()));
  }
}

ConnectResult Connection::connect() {
  if (path_->empty()) return ConnectResult::kTimeout;
  const net::Ipv4Address src_ip = net_->topology_.node_ip(client_);
  next_seq_ = 1000;
  net::Packet& syn = net_->send_scratch_;
  net::assign_tcp_packet(syn, src_ip, dst_, sport_, dport_, net::TcpFlags::kSyn, next_seq_,
                         0, {}, 64);
  std::vector<Event>& events = net_->connect_events_;
  events.clear();
  net_->forward_walk(syn, *path_, events, /*payload_phase=*/false);
  for (const Event& ev : events) {
    if (const auto* tcp = std::get_if<TcpEvent>(&ev)) {
      if (tcp->packet.tcp.has(net::TcpFlags::kRst)) return ConnectResult::kReset;
      if (tcp->packet.tcp.has(net::TcpFlags::kSyn) && tcp->packet.tcp.has(net::TcpFlags::kAck)) {
        established_ = true;
        next_seq_ += 1;  // SYN consumed one sequence number
        peer_seq_ = tcp->packet.tcp.seq + 1;
        return ConnectResult::kEstablished;
      }
    }
  }
  return ConnectResult::kTimeout;
}

std::vector<Event> Connection::send(Bytes payload, std::uint8_t ttl) {
  std::vector<Event> events;
  send_into(payload, ttl, events);
  return events;
}

void Connection::send_into(const Bytes& payload, std::uint8_t ttl,
                           std::vector<Event>& events) {
  events.clear();
  if (!established_) return;
  const net::Ipv4Address src_ip = net_->topology_.node_ip(client_);
  net::Packet& pkt = net_->send_scratch_;
  net::assign_tcp_packet(pkt, src_ip, dst_, sport_, dport_,
                         net::TcpFlags::kPsh | net::TcpFlags::kAck, next_seq_, peer_seq_,
                         payload, ttl);
  next_seq_ += static_cast<std::uint32_t>(pkt.payload.size());
  last_sent_ = pkt.headers();
  if (net_->capture_ != nullptr) net_->capture_->add(net_->now(), pkt.serialize());
  net_->forward_walk(pkt, *path_, events, /*payload_phase=*/true);
}

std::vector<Event> Connection::send_segments(const std::vector<SegmentSpec>& segments) {
  std::vector<Event> events;
  if (!established_ || segments.empty()) return events;
  const net::Ipv4Address src_ip = net_->topology_.node_ip(client_);

  // Total sequence span the probe covers (segments may overlap).
  std::uint32_t span = 0;
  for (const SegmentSpec& seg : segments) {
    span = std::max(span, seg.offset + static_cast<std::uint32_t>(seg.bytes.size()));
  }

  // Canonical receiver-stack reassembly: out-of-order segments buffer,
  // already-received bytes are never overwritten (first-wins), and the
  // application sees the message only once the whole span is contiguous.
  Bytes assembled(span, 0);
  std::vector<bool> filled(span, false);
  bool concluded = false;

  for (const SegmentSpec& seg : segments) {
    net::Packet pkt = net::make_tcp_packet(
        src_ip, dst_, sport_, dport_, net::TcpFlags::kPsh | net::TcpFlags::kAck,
        next_seq_ + seg.offset, peer_seq_, seg.bytes, seg.ttl);
    pkt.checksum_ok = !seg.bad_checksum;
    last_sent_ = pkt.headers();
    if (net_->capture_ != nullptr) net_->capture_->add(net_->now(), pkt.serialize());
    net::Packet delivered;
    bool reached = net_->forward_walk(pkt, *path_, events,
                                      /*payload_phase=*/true, &delivered);
    if (!reached || concluded) continue;
    // Fill with the bytes that actually arrived (faults may have mangled
    // them in flight), never overwriting data already accepted.
    for (std::size_t b = 0; b < delivered.payload.size(); ++b) {
      std::size_t idx = seg.offset + b;
      if (idx < span && !filled[idx]) {
        assembled[idx] = delivered.payload[b];
        filled[idx] = true;
      }
    }
    if (std::find(filled.begin(), filled.end(), false) == filled.end()) {
      delivered.tcp.seq = next_seq_;  // message base for the reply's ack
      net_->deliver_assembled(std::move(delivered), assembled, *path_, events);
      concluded = true;
    }
  }
  next_seq_ += span;
  return events;
}

}  // namespace cen::sim

// The packet-walk engine: ties topology, endpoints and censor devices into
// a sendable network.
//
// A tool opens a `Connection` from a client node to an endpoint IP and
// sends application payloads with a chosen IP TTL. The engine walks the
// flow's ECMP path hop by hop: in-path devices on the link into each node
// inspect (and may consume) the packet, on-path taps inspect a copy and
// may inject, routers decrement TTL and answer exhaustion with ICMP Time
// Exceeded (quoting per their RFC 792/1812 policy), and the endpoint's
// web-server model answers delivered payloads. Injected and reply packets
// traverse the reverse path with real TTL decay — which is what makes the
// paper's TTL-copying "Past E" artefact reproducible.
//
// Everything the client would capture with tcpdump is returned as an
// ordered list of `Event`s; an empty list is a timeout.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/flat_map.hpp"

#include "censor/device.hpp"
#include "core/clock.hpp"
#include "core/rng.hpp"
#include "geo/asdb.hpp"
#include "net/icmp.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "netsim/endpoint.hpp"
#include "netsim/faults.hpp"
#include "netsim/topology.hpp"

namespace cen::obs {
class Observer;
struct EngineCounters;
}

namespace cen::sim {

/// ICMP Time Exceeded received by the client.
struct IcmpEvent {
  net::Ipv4Address router;
  Bytes quoted;  // quoted original datagram bytes
};

/// A TCP packet received by the client (genuine endpoint reply or spoofed
/// injection — indistinguishable to the client, as in reality).
struct TcpEvent {
  net::Packet packet;
};

/// A UDP datagram received by the client (genuine answer or forged — the
/// client may receive BOTH when an on-path injector races the resolver).
struct UdpEvent {
  net::UdpDatagram datagram;
};

using Event = std::variant<IcmpEvent, TcpEvent, UdpEvent>;

/// One TCP segment of a deliberately-crafted (possibly ambiguous) probe
/// sequence: raw bytes at an offset relative to the message start, with its
/// own IP TTL and an optionally-corrupt TCP checksum. Segments may overlap,
/// arrive out of order, or expire before the endpoint — exactly the
/// ambiguities cenambig uses to tell reassembly implementations apart.
struct SegmentSpec {
  std::uint32_t offset = 0;
  Bytes bytes;
  std::uint8_t ttl = 64;
  bool bad_checksum = false;
};

/// Ephemeral source-port pool [floor, ceiling): fresh connections draw
/// from it and wrap back to the floor, never entering reserved ranges.
constexpr std::uint16_t kEphemeralPortFloor = 40000;
constexpr std::uint16_t kEphemeralPortCeiling = 65000;

/// Outcome of a connection attempt.
enum class ConnectResult : std::uint8_t { kEstablished, kTimeout, kReset };

class Network;

/// One TCP connection from a client node to an endpoint. Fresh connections
/// get fresh source ports, which is what exposes them to ECMP variance.
class Connection {
 public:
  /// Perform the SYN handshake (TTL 64). Must succeed before send().
  ConnectResult connect();
  /// Send one application payload with the given IP TTL; returns every
  /// packet the client receives back (empty = timeout).
  std::vector<Event> send(Bytes payload, std::uint8_t ttl = 64);

  /// Allocation-free variant: clears `events` and fills it in place, so a
  /// probe loop can reuse one vector (and its capacity) across attempts
  /// instead of constructing a fresh one per send.
  void send_into(const Bytes& payload, std::uint8_t ttl, std::vector<Event>& events);

  /// Send one application message as individually-crafted TCP segments, in
  /// the given (possibly out-of-order) send order. Devices along the path
  /// inspect each *segment* through their ReassemblyQuirks; the endpoint
  /// TCP stack performs canonical reassembly (first-wins, out-of-order
  /// buffered, bad-checksum segments discarded, TTL-expired segments never
  /// arriving) and hands the application the assembled message only if the
  /// whole span was covered. Returns everything the client receives back.
  std::vector<Event> send_segments(const std::vector<SegmentSpec>& segments);

  std::uint16_t source_port() const { return sport_; }
  /// The ECMP path this flow rides: the route the topology cached, not a
  /// copy. It stays valid as long as the Network does (the topology never
  /// drops a cached route); a flow with no route has an empty path.
  const std::vector<NodeId>& path() const { return *path_; }
  /// The IP and TCP headers of the packet most recently sent, in their
  /// pre-flight state: the baseline CenTrace diffs quoted ICMP packets
  /// against. Headers only; the payload is not kept.
  const net::PacketHeaders& last_sent() const { return last_sent_; }

 private:
  friend class Network;
  Connection(Network* net, NodeId client, net::Ipv4Address dst, std::uint16_t dport,
             std::uint16_t sport);

  Network* net_ = nullptr;
  NodeId client_ = kInvalidNode;
  net::Ipv4Address dst_;
  std::uint16_t dport_ = 0;
  std::uint16_t sport_ = 0;
  const std::vector<NodeId>* path_ = nullptr;
  bool established_ = false;
  std::uint32_t next_seq_ = 0;
  std::uint32_t peer_seq_ = 0;
  net::PacketHeaders last_sent_;
};

class Network {
 public:
  Network(Topology topology, geo::IpMetadataDb geodb, std::uint64_t seed = 1);

  /// Copy the network for a parallel worker: same topology, geo metadata,
  /// endpoints, fault plan and construction seed, but *fresh* device
  /// instances (no inherited flow/residual state), a rewound clock, a
  /// reset ephemeral-port pool and no capture sink. Replicas never share
  /// *mutable* state with the original; immutable data — the topology,
  /// the geo DB, the endpoint table, device configurations and the frozen
  /// ECMP path cache — is shared by reference, which makes cloning cheap
  /// enough to pay per worker without flattening the scaling curve. A
  /// replica that later mutates shared structure (add_endpoint) detaches
  /// its own copy first (copy-on-write), so independence is preserved.
  std::unique_ptr<Network> clone() const;
  /// clone() onto `topology`, which must extend this network's: every
  /// existing node keeps its id, so devices and endpoints stay where they
  /// are (a measurement server added next to a built scenario, say).
  std::unique_ptr<Network> clone_with(Topology topology) const;

  /// Reset all mutable simulation state to a deterministic epoch derived
  /// from `substream_seed`: clock to 0, ephemeral ports to the floor,
  /// device flow/residual state cleared, the engine RNG reseeded with the
  /// substream and the fault RNG rebased on a substream-derived seed. Two
  /// networks built from the same topology that reset to the same seed
  /// replay byte-identical measurements — the contract the parallel
  /// pipeline's hermetic tasks rely on.
  void reset_epoch(std::uint64_t substream_seed);

  /// The seed the network was constructed with (substream derivation).
  std::uint64_t seed() const { return seed_; }

  /// Digest of everything that determines measurement outcomes on this
  /// network: topology, IP metadata (geodb), construction seed,
  /// endpoints, deployed devices and the installed fault plan. Clones
  /// fingerprint identically to the original; runtime state (clock,
  /// ports, observers) is excluded. Each registered endpoint profile is
  /// digested once, so a million hosts sharing a few templates cost one
  /// (ip, profile digest) pair each.
  std::uint64_t fingerprint() const;

  const Topology& topology() const { return topology_; }
  const geo::IpMetadataDb& geodb() const { return *geodb_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  SimTime now() const { return clock_.now(); }

  /// Deploy a device on the link entering `at` (in-path) or as a tap on
  /// that link (on-path — taken from the device's config).
  void attach_device(NodeId at, std::shared_ptr<censor::Device> device);
  /// Swap the configuration of an already-deployed device (by devices()
  /// index) in place: same deployment node, fresh runtime state, new
  /// behaviour. The longitudinal evolution engine mutates censor policy
  /// between epochs through this, which flows straight into fingerprint().
  /// Throws std::out_of_range on a bad index.
  void replace_device_config(std::size_t index, censor::DeviceConfig config);
  /// Register a web-server endpoint at a topology node. The first
  /// registration of an address wins; a later one is ignored.
  void add_endpoint(NodeId node, EndpointProfile profile);
  /// Register many endpoints in one call: endpoint i sits at `nodes[i]`
  /// and serves `profiles[profile_of[i]]`, as if each were added in turn
  /// (first registration of an address wins). Worldgen populations register
  /// a million hosts against a handful of shared templates this way: one
  /// host per profile, no per-host copy. Throws std::invalid_argument when
  /// the two columns differ in length and std::out_of_range on a profile
  /// index past `profiles`, before registering anything.
  void add_endpoints(std::span<const NodeId> nodes, std::span<const std::uint16_t> profile_of,
                     std::span<const std::shared_ptr<const EndpointProfile>> profiles);

  /// Open a TCP connection; a fresh ephemeral source port is assigned.
  Connection open_connection(NodeId client, net::Ipv4Address dst,
                             std::uint16_t dst_port = 80);

  /// Fire one UDP datagram (fresh ephemeral source port) and collect
  /// everything delivered back: ICMP Time Exceeded, forged injections,
  /// and/or the genuine answer — possibly several of them.
  std::vector<Event> send_udp(NodeId client, net::Ipv4Address dst,
                              std::uint16_t dst_port, Bytes payload,
                              std::uint8_t ttl = 64);

  /// Independent transient packet loss applied to each forward walk
  /// (models the network failures CenTrace's 3 retries absorb).
  /// Compatibility shim over the fault layer: clamps to [0, 1], throws
  /// std::invalid_argument on NaN.
  void set_transient_loss(double probability) {
    faults_.set_transient_loss(probability);
  }

  /// Install a fault plan (sanitized; resets all runtime fault state).
  /// The default-constructed plan is inert: with it installed the
  /// simulation is byte-identical to a fault-free network.
  void set_fault_plan(FaultPlan plan) { faults_.set_plan(std::move(plan)); }
  /// The runtime fault state. Mutable through a const Network because
  /// fault bookkeeping (token buckets, the fault RNG) is deterministic
  /// simulation scaffolding, not logical network state — const paths like
  /// scan_services still experience management-plane faults.
  FaultInjector& faults() const { return faults_; }

  /// Management-plane scan: open services on a device management IP.
  std::vector<censor::ServiceBanner> scan_services(net::Ipv4Address ip) const;

  /// Nmap-style stack probe of a management IP: the TCP-stack fingerprint
  /// its SYN/ACK and RST responses reveal. Requires at least one open port
  /// to elicit a SYN/ACK; nullopt otherwise. Plain routers answer with a
  /// generic network-OS stack.
  std::optional<censor::StackFingerprint> probe_stack(net::Ipv4Address ip) const;

  /// Attach a capture sink recording everything the client sends and
  /// receives (the paper's tcpdump, §4.2). Pass nullptr to detach. The
  /// writer must outlive the network or be detached first.
  void set_capture(net::PcapWriter* capture) { capture_ = capture; }

  /// Attach an observability sink (metrics + journal; see src/obs/).
  /// Pass nullptr to detach — detaching also unhooks the fault-layer
  /// counters, restoring the zero-instrumentation fast path. Like the
  /// capture sink, the observer is per-instance runtime scaffolding:
  /// clone() deliberately does not copy it (parallel replicas get their
  /// own per-task observers), and reset_epoch() leaves it attached.
  void set_observer(obs::Observer* obs);
  obs::Observer* observer() const { return obs_; }

  /// Devices deployed in the network (scenario bookkeeping/ground truth).
  const std::vector<std::shared_ptr<censor::Device>>& devices() const { return devices_; }
  /// Reset all device state (fresh measurement epoch).
  void reset_device_state();

 private:
  friend class Connection;

  struct Attachment {
    NodeId at = kInvalidNode;
    std::shared_ptr<censor::Device> device;
  };

  /// Is a device deployed on the link entering `node`? (attachments_
  /// then has its entry.)
  bool has_device(NodeId node) const { return node < has_device_.size() && has_device_[node]; }

  /// Tag-dispatched replica constructor backing clone() and clone_with():
  /// shares immutable structure, re-creates mutable runtime state fresh.
  struct CloneTag {};
  Network(const Network& other, Topology topology, CloneTag);

  /// The endpoint hosts as columns: `ips` ascends, `slots[i]` is the host
  /// serving `ips[i]`, and `hosts` holds one EndpointHost per registered
  /// profile, so hosts sharing a template share one entry.
  struct EndpointTable {
    std::vector<std::uint32_t> ips;
    std::vector<std::uint32_t> slots;
    std::vector<EndpointHost> hosts;

    /// The host serving `ip`, or null.
    const EndpointHost* find(std::uint32_t ip) const;
    /// Map `ip` to host `slot` unless `ip` is already registered (first
    /// wins). An address past the last one appends in O(1).
    bool insert(std::uint32_t ip, std::uint32_t slot);
  };
  /// Copy-on-write access: detaches a private copy when the table is shared
  /// with other replicas (endpoints added after cloning stay replica-local).
  EndpointTable& mutable_endpoints();

  /// Walk a client→endpoint packet along `path`; fills `events` with
  /// everything delivered back to the client. Returns true if the packet
  /// reached the endpoint application. With `delivered` non-null the walk
  /// runs in segment mode: the endpoint TCP stack takes delivery of the
  /// packet (bad-checksum segments are discarded) without invoking the
  /// application — the caller models reassembly and hands the assembled
  /// message back through deliver_assembled().
  /// The walk rewrites `pkt` in place (TTL, TOS, DF, mangled payload).
  bool forward_walk(net::Packet& pkt, const std::vector<NodeId>& path,
                    std::vector<Event>& events, bool payload_phase,
                    net::Packet* delivered = nullptr);

  /// Deliver a reassembled message to the endpoint application exactly
  /// once (local filter + web-server model + reply), as a real receiver
  /// does after stitching segments back together. `proto` carries the
  /// flow's headers with tcp.seq at the message base; its payload is
  /// replaced by `assembled`.
  void deliver_assembled(net::Packet proto, Bytes assembled,
                         const std::vector<NodeId>& path,
                         std::vector<Event>& events);

  /// The endpoint-application half of the final hop: local filter verdict,
  /// web-server handling and the spoofed reply. Returns true if the
  /// payload reached the application.
  bool endpoint_payload_reply(const EndpointHost& ep, const net::Packet& pkt,
                              const std::vector<NodeId>& path, std::size_t i,
                              std::vector<Event>& events);

  /// Deliver a packet travelling from path index `from_index` back to the
  /// client at path[0], decrementing TTL per router hop.
  void reverse_deliver(net::Packet pkt, const std::vector<NodeId>& path,
                       std::size_t from_index, std::vector<Event>& events);
  void reverse_deliver_udp(net::UdpDatagram dgram, std::size_t from_index,
                           std::vector<Event>& events);

  /// Fault outcome of an ICMP Time Exceeded travelling back from
  /// path[from_index] to the client: lost on a return link, duplicated or
  /// reordered on the access link. Only called when faults are active.
  struct IcmpDelivery {
    bool delivered = true;
    bool duplicated = false;
    bool late = false;
  };
  IcmpDelivery icmp_delivery(const std::vector<NodeId>& path, std::size_t from_index);

  /// Assign the next ephemeral source port, wrapping explicitly back to
  /// kEphemeralPortFloor before the pool exhausts (long chaos/bench runs
  /// must never bleed into reserved or well-known ranges).
  std::uint16_t allocate_ephemeral_port();

  Topology topology_;
  /// Immutable after construction; shared across replicas.
  std::shared_ptr<const geo::IpMetadataDb> geodb_;
  SimClock clock_;
  std::uint64_t seed_ = 1;
  Rng rng_;
  mutable FaultInjector faults_;
  net::PcapWriter* capture_ = nullptr;
  obs::Observer* obs_ = nullptr;
  /// Cached &obs_->engine() so the per-hop hot path costs one pointer
  /// test when observability is disabled.
  obs::EngineCounters* ec_ = nullptr;
  std::uint16_t next_ephemeral_port_ = kEphemeralPortFloor;
  core::FlatMap<NodeId, std::vector<Attachment>> attachments_;
  /// One bit per node id: set by attach_device where attachments_ has an
  /// entry. Almost every hop of a walk has no device, so forward_walk and
  /// send_udp test the bit and search attachments_ only where it is set.
  /// Sized to the highest deployment node: at most 125 KB on a 1m world.
  std::vector<bool> has_device_;
  /// Endpoint hosts by IP value. Copy-on-write shared across replicas:
  /// EndpointHost is stateless (all handlers const), so concurrent reads
  /// of the shared table are race-free; any writer detaches first.
  std::shared_ptr<EndpointTable> endpoints_ = std::make_shared<EndpointTable>();
  std::vector<std::shared_ptr<censor::Device>> devices_;
  /// Deployment node of devices_[i] (clone() rebuilds attachments in the
  /// original deployment order so device iteration order is preserved).
  std::vector<NodeId> device_nodes_;
  /// Reused scratch for ICMP quoted-packet construction (the per-hop hot
  /// path serializes at most the quote cap into this buffer instead of
  /// the whole probe).
  Bytes quote_scratch_;
  /// The packet Connection sends are built in and walked as; its payload
  /// keeps its capacity, so a probe loop copies its payload into the same
  /// buffer every time.
  net::Packet send_scratch_;
  /// The events of Connection::connect's handshake, reused across calls.
  std::vector<Event> connect_events_;
};

/// RAII observer attachment: installs `obs` on construction (a nullptr
/// leaves the current observer in place) and restores the previous
/// observer on destruction — exception-safe scaffolding for the unified
/// tool entry points (`trace::run` / `probe::run` / `fuzz::run`), which
/// must never leak a caller-supplied observer into the network.
class ScopedObserver {
 public:
  ScopedObserver(Network& network, obs::Observer* obs)
      : network_(network), previous_(network.observer()) {
    if (obs != nullptr) network_.set_observer(obs);
  }
  ~ScopedObserver() { network_.set_observer(previous_); }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  Network& network_;
  obs::Observer* previous_;
};

}  // namespace cen::sim

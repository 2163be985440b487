// Censorship middlebox model: configuration + stateful runtime.
//
// A device is deployed at a point in the simulated network (in-path on a
// link, or on-path as a passive tap that can only inject). It inspects
// client→endpoint payloads with its quirky DPI parsers, matches extracted
// hostnames/SNIs against its rule set, and reacts with its configured
// action: silently dropping packets, injecting spoofed TCP RST/FIN, or
// injecting an HTTP blockpage. Stateful behaviours the paper works around
// (§4.1) are modelled: residual blocking windows keyed by (client,
// endpoint) and per-flow injection count limits.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "censor/quirks.hpp"
#include "censor/rules.hpp"
#include "core/arena.hpp"
#include "core/clock.hpp"
#include "core/flat_map.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"

namespace cen::censor {

enum class BlockAction : std::uint8_t { kDrop, kRstInject, kFinInject, kBlockpage };

std::string_view block_action_name(BlockAction a);

/// Network-layer fingerprint of the packets a device injects. These fields
/// surface directly as clustering features (paper Table 3 / Fig. 9:
/// InjectedIPTTL, InjectedIPFlags, ...).
struct InjectionProfile {
  std::uint8_t init_ttl = 64;
  /// TTL-copying injectors (observed in RU, §4.3 "Past E"): the injected
  /// packet inherits the *remaining* TTL of the triggering probe.
  bool copy_ttl_from_trigger = false;
  std::uint16_t ip_id = 0;       // fixed IP ID stamped on injected packets
  std::uint8_t ip_flags = 0x2;   // DF by default
  std::uint8_t ip_tos = 0;
  std::uint16_t tcp_window = 0;
  std::vector<net::TcpOption> tcp_options;
  /// Some middleboxes inject at most N times per TCP connection (§4.1);
  /// -1 = unlimited.
  int max_injections_per_flow = -1;
};

/// A service a device exposes on its management IP (used by banner grabs).
struct ServiceBanner {
  std::uint16_t port = 0;
  std::string protocol;  // "http", "https", "ssh", "telnet", "ftp", "smtp", "snmp"
  std::string banner;
};

/// TCP-stack fingerprint of a device's management plane — what Nmap's
/// crafted probes recover (§5.1): initial TTL and window of the SYN/ACK,
/// option support, and the TTL of RSTs from closed ports. OS stacks differ
/// on these per vendor, which is why they appear in Table 3's feature set.
struct StackFingerprint {
  std::uint8_t synack_ttl = 64;
  std::uint16_t synack_window = 29200;  // Linux default
  std::uint16_t mss = 1460;
  bool sack_permitted = true;
  std::uint8_t rst_ttl = 64;

  bool operator==(const StackFingerprint&) const = default;
};

struct DeviceConfig {
  std::string id;            // unique deployment id, e.g. "kz-kazakhtelecom-1"
  std::string vendor;        // ground-truth vendor ("" = unknown/ISP-built)
  bool on_path = false;      // passive tap (inject-only) vs inline
  BlockAction action = BlockAction::kDrop;
  /// Override for TLS flows (blockpage injectors cannot place a page into
  /// an encrypted stream, so e.g. Fortinet resets TLS instead).
  std::optional<BlockAction> tls_action;
  /// Residual blocking: after a trigger, payload packets between the same
  /// (client, endpoint) pair are subjected to `action` for this window.
  SimTime residual_block_ms = 0;
  RuleSet http_rules;
  RuleSet sni_rules;
  /// DNS-query names the device censors (the paper's protocol extension:
  /// national DNS injectors). Empty = device ignores DNS.
  RuleSet dns_rules;
  /// For DNS triggers with a blockpage-class action: inject a spoofed A
  /// record pointing here; unset = inject NXDOMAIN.
  std::optional<net::Ipv4Address> dns_sinkhole;
  HttpQuirks http_quirks;
  TlsQuirks tls_quirks;
  /// How the device reassembles TCP segments before classification. The
  /// default is the inert (endpoint-equivalent) profile; vendors differ
  /// here, and cenambig fingerprints exactly these differences.
  ReassemblyQuirks reassembly;
  InjectionProfile injection;
  std::string blockpage_html;  // body injected when action == kBlockpage
  /// Management address — for in-path devices this is typically the IP of
  /// the router whose link they sit on; banner grabs probe it.
  std::optional<net::Ipv4Address> mgmt_ip;
  std::vector<ServiceBanner> services;  // open ports on the management IP
  /// TCP-stack behaviour of the management plane (Nmap-recoverable).
  StackFingerprint stack;
};

/// What the engine should do with an inspected packet.
struct Verdict {
  bool drop = false;                         // consume the packet (in-path only)
  bool triggered = false;                    // DPI matched a rule
  std::vector<net::Packet> inject_to_client; // spoofed packets toward the client
};

/// UDP counterpart: DNS-over-UDP injectors forge answer datagrams.
struct UdpVerdict {
  bool drop = false;
  bool triggered = false;
  std::vector<net::UdpDatagram> inject_to_client;
};

class Device {
 public:
  explicit Device(DeviceConfig config)
      : config_(std::make_shared<const DeviceConfig>(std::move(config))) {}
  /// Share an existing (immutable) configuration — the clone() path:
  /// worker replicas get fresh runtime state but reference the same
  /// config instead of deep-copying its rule sets and strings.
  explicit Device(std::shared_ptr<const DeviceConfig> config)
      : config_(std::move(config)) {}

  /// Inspect a client→endpoint packet seen at the device's deployment
  /// point. `now` drives residual-state expiry.
  Verdict inspect(const net::Packet& packet, SimTime now);

  /// Inspect a client→endpoint UDP datagram (DNS queries). An on-path
  /// injector forges an answer datagram and lets the original through —
  /// the race every national DNS injector runs.
  UdpVerdict inspect_udp(const net::UdpDatagram& datagram, SimTime now);

  /// Would this payload trigger the device's rules? (Stateless oracle used
  /// by tests and the fuzzer's ground-truth checks.)
  bool payload_triggers(BytesView payload) const;

  /// Legacy inspection mode: classify every packet's payload in isolation,
  /// exactly as before the segment-reassembly path existed. Only the
  /// cencheck `ambig` engine uses this, to prove that inert
  /// ReassemblyQuirks are byte-identical to the historical behaviour.
  void set_assembled_bypass(bool on) { assembled_bypass_ = on; }

  /// Would this contiguous byte prefix still grow, or is it a complete
  /// classifiable message (full TLS record, length-satisfied DNS message,
  /// blank-line-terminated HTTP header block)? Exposed for the probe
  /// crafters and tests.
  static bool message_complete(BytesView data);

  /// The UDP oracle: bare (unframed) DNS messages.
  bool udp_payload_triggers(BytesView payload) const;

  const DeviceConfig& config() const { return *config_; }
  /// The shared configuration handle (clone() passes it to replicas).
  const std::shared_ptr<const DeviceConfig>& config_ptr() const { return config_; }
  /// Clear all per-flow and residual state (fresh measurement epoch).
  /// Cheap when the device never triggered since the last reset — the
  /// dirty flag makes the per-task sub-epoch rollback a no-op for the
  /// (common) devices a task's flow never touched.
  void reset_state();
  /// Number of times the device has triggered since construction/reset.
  std::size_t trigger_count() const { return trigger_count_; }

 private:
  struct FlowKey {
    std::uint32_t src = 0, dst = 0;
    std::uint16_t sport = 0, dport = 0;
    auto operator<=>(const FlowKey&) const = default;
  };
  struct PairKey {
    std::uint32_t src = 0, dst = 0;
    auto operator<=>(const PairKey&) const = default;
  };

  /// Memoized DPI verdict. `payload_triggers` is a pure function of the
  /// payload bytes and the (immutable) config: no RNG, no state. The
  /// measurement loop re-sends the same handful of payloads hundreds of
  /// times (11 sweep repetitions x hops x retries), so a tiny exact-bytes
  /// cache removes the dominant parse cost. Entries store their bytes in
  /// a per-device arena (contiguous, allocation-free on reuse); the cache
  /// stops admitting entries at the cap so fuzz-stage payload diversity
  /// cannot bloat it.
  struct DpiCacheEntry {
    std::uint64_t hash = 0;
    const std::uint8_t* data = nullptr;
    std::uint32_t len = 0;
    bool triggers = false;
  };
  static constexpr std::size_t kDpiCacheCap = 48;

  /// Per-flow reassembly window. Only *partial* messages ever allocate one:
  /// a segment that alone forms a complete message is classified inline and
  /// never touches member state, keeping the historical hot path (and the
  /// cheap dirty_-gated reset) intact for unsegmented traffic.
  struct FlowWindow {
    std::uint32_t base_seq = 0;  // TCP seq of data_[0]
    std::uint8_t base_ttl = 0;   // arriving TTL of the segment that opened it
    Bytes data;
    std::vector<bool> filled;    // per-byte coverage (holes from OOO arrival)
  };
  static constexpr std::size_t kMaxWindowBytes = 8 * 1024;

  BlockAction effective_action(const net::Packet& packet) const;
  std::vector<net::Packet> craft_injections(const net::Packet& trigger,
                                            BlockAction action) const;
  bool payload_triggers_uncached(BytesView payload) const;
  /// Segment-level classification: feeds the packet through the device's
  /// ReassemblyQuirks and classifies whatever message (if any) concludes.
  bool classify_segment(const net::Packet& packet);

  std::shared_ptr<const DeviceConfig> config_;
  core::FlatMap<FlowKey, int> flow_injections_;
  core::FlatMap<PairKey, SimTime> residual_until_;
  core::FlatMap<FlowKey, FlowWindow> windows_;
  std::size_t trigger_count_ = 0;
  bool dirty_ = false;
  bool assembled_bypass_ = false;
  mutable std::vector<DpiCacheEntry> dpi_cache_;
  /// Index of the entry that answered the last lookup (checked first).
  mutable std::size_t dpi_last_hit_ = 0;
  mutable core::Arena dpi_arena_{4 * 1024};
};

}  // namespace cen::censor

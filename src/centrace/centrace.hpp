// CenTrace — the censorship traceroute (paper §4).
//
// A CenTrace measurement probes one (endpoint, Test Domain) pair from a
// client: it sends a real HTTP GET or TLS ClientHello for a benign Control
// Domain with TTL 1, 2, 3, ... (building the path from ICMP Time Exceeded
// responses), then repeats the sweep for the Test Domain and watches for
// the probe to die early — a spoofed TCP RST/FIN, an injected blockpage, or
// the start of an unbroken run of timeouts. The hop where the Test sweep
// terminates, located on the Control path, is the blocking hop.
//
// The implementation covers every device behaviour in the paper's Fig. 2:
//   (A/B) in-path injectors — terminating response with no ICMP at that TTL;
//   (C)   packet-dropping devices — trailing-timeout runs with retries;
//   (D)   on-path taps — injected response *plus* ICMP from the same TTL;
//   (E)   TTL-copying injectors — resets that only become visible at
//         TTL ≈ 2·d with a received TTL of 1, corrected back to d.
// Path variance is tamed by repeating both sweeps (11× by default, the
// paper's empirically derived count) over fresh TCP connections and
// majority-voting each hop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "centrace/icmp_diff.hpp"
#include "core/flat_map.hpp"
#include "core/strings.hpp"
#include "geo/asdb.hpp"
#include "netsim/engine.hpp"

namespace cen::trace {

/// What a single TTL-limited probe elicited.
enum class ProbeResponse : std::uint8_t {
  kTimeout,          // nothing after retries
  kIcmpTtlExceeded,  // router answered; path continues
  kTcpRst,
  kTcpFin,
  kBlockpage,        // HTTP response matching a known blockpage fingerprint
  kEndpointData,     // genuine-looking response (HTTP page / TLS handshake)
};
inline constexpr std::string_view kProbeResponseNames[] = {"TIMEOUT", "ICMP", "RST",
                                                           "FIN",     "HTTP", "DATA"};
constexpr std::string_view probe_response_name(ProbeResponse r) {
  return enum_name(kProbeResponseNames, r);
}

struct HopObservation {
  int ttl = 0;
  ProbeResponse response = ProbeResponse::kTimeout;
  std::optional<net::Ipv4Address> icmp_router;
  std::optional<Bytes> icmp_quoted;
  /// TCP packet received from the endpoint IP (genuine or spoofed).
  std::optional<net::Packet> tcp_packet;
  /// Both an injected TCP response and an ICMP from this TTL (on-path signal).
  bool tcp_and_icmp = false;
  /// Headers of the probe as sent (baseline for quote diffing).
  net::PacketHeaders sent;
};

/// One full TTL sweep for one domain over fresh per-probe connections.
struct SingleTrace {
  std::string domain;
  std::vector<HopObservation> hops;  // hops[i] is TTL i+1
  int terminating_ttl = -1;          // TTL of the terminating response
  ProbeResponse terminating_response = ProbeResponse::kTimeout;
  bool endpoint_reached = false;
  bool connect_failed = false;
  /// The early-abort heuristic declared the ICMP channel dead during
  /// this sweep (a run of all-silent hops with zero ICMP ever observed
  /// and no live loss signal): remaining timeouts ran without retries.
  bool channel_dead = false;
};

enum class BlockingType : std::uint8_t { kNone, kTimeout, kRst, kFin, kHttpBlockpage };
inline constexpr std::string_view kBlockingTypeNames[] = {"NONE", "TIMEOUT", "RST", "FIN",
                                                          "HTTP"};
constexpr std::string_view blocking_type_name(BlockingType t) {
  return enum_name(kBlockingTypeNames, t);
}

enum class BlockingLocation : std::uint8_t {
  kNotBlocked,
  kOnPathToEndpoint,  // strictly between client and endpoint ("Path(C->E)")
  kAtEndpoint,        // the endpoint (or a NAT in front of it) ("At E")
  kPastEndpoint,      // apparent hop beyond the endpoint ("Past E")
  kNoIcmp,            // cannot localize: neighbouring hops silent ("No ICMP")
};
inline constexpr std::string_view kBlockingLocationNames[] = {
    "not-blocked", "Path(C->E)", "At E", "Past E", "No ICMP"};
constexpr std::string_view blocking_location_name(BlockingLocation l) {
  return enum_name(kBlockingLocationNames, l);
}

enum class DevicePlacement : std::uint8_t { kUnknown, kInPath, kOnPath };
inline constexpr std::string_view kDevicePlacementNames[] = {"unknown", "in-path", "on-path"};
constexpr std::string_view device_placement_name(DevicePlacement p) {
  return enum_name(kDevicePlacementNames, p);
}

/// The degradation ladder: how much localisation a measurement achieved
/// given the ICMP conditions it found (ISSUE 6 tentpole).
///   full          ICMP channel healthy, hop-level localisation stands;
///   icmp_degraded hop localised, but the ICMP channel was visibly
///                 starved (rate limiting / partial blackholing), so the
///                 hop evidence rests on fewer quotes than usual;
///   tomography    hop-level ICMP localisation failed, but multi-vantage
///                 boolean tomography produced a candidate link set;
///   unlocalized   blocking confirmed, no localisation of any kind.
enum class DegradationMode : std::uint8_t {
  kFull,
  kIcmpDegraded,
  kTomography,
  kUnlocalized,
};
inline constexpr std::string_view kDegradationModeNames[] = {"full", "icmp_degraded",
                                                             "tomography", "unlocalized"};
constexpr std::string_view degradation_mode_name(DegradationMode m) {
  return enum_name(kDegradationModeNames, m);
}

/// One candidate blocking link from the tomography solver, reported by
/// the IPs of its endpoints (NodeIds are simulator-internal).
struct BlamedLink {
  net::Ipv4Address ip_a;
  net::Ipv4Address ip_b;
  double confidence = 0.0;
  int blocked_paths = 0;
  int clean_paths = 0;
};

/// Channel-health assessment + escalation outcome attached to every
/// CenTrace report (degrade-don't-die: the report always says how much
/// to trust its localisation instead of silently emitting garbage hops).
struct DegradationInfo {
  DegradationMode mode = DegradationMode::kFull;
  /// ICMP answers / (answers + timeouts) over the control-sweep hops —
  /// the blackhole/rate-limit starvation signal.
  double icmp_answer_rate = 1.0;
  /// Sweeps the early-abort heuristic declared ICMP-dead (see
  /// CenTraceOptions::silent_channel_abort).
  int dead_channel_sweeps = 0;
  /// Vantage points that contributed observations (1 = the client alone).
  int vantage_count = 1;
  /// Path observations fed to the tomography solver (0 = not escalated).
  int tomography_observations = 0;
  bool tomography_solved = false;
  /// Candidate blocking links, highest confidence first.
  std::vector<BlamedLink> candidate_links;
};

/// Protocol the probes carry. HTTP GET and TLS ClientHello are the paper's
/// subjects; DNS (over TCP, RFC 7766, and over UDP — the injector-race
/// variant) is the protocol extension §4/§8 anticipate.
enum class ProbeProtocol : std::uint8_t { kHttp, kHttps, kDns, kDnsUdp };
inline constexpr std::string_view kProbeProtocolNames[] = {"HTTP", "TLS", "DNS", "DNS/UDP"};
constexpr std::string_view probe_protocol_name(ProbeProtocol p) {
  return enum_name(kProbeProtocolNames, p);
}

struct CenTraceOptions {
  int max_ttl = 64;
  int retries = 3;          // per-probe retries on timeout (transient loss)
  int repetitions = 11;     // sweeps per domain (paper's path-variance count)
  /// Probes after observing blocking wait this long (stateful censors).
  SimTime inter_probe_wait = 120 * kSecond;
  /// Consecutive timeouts after which a sweep concludes "dropped".
  /// Must exceed the longest silent-router run and the TTL-copy gap.
  int timeout_run_stop = 16;
  ProbeProtocol protocol = ProbeProtocol::kHttp;
  /// Simulated-time wait before a probe retry, doubled each further
  /// attempt (exponential backoff). 0 keeps the paper's timing model:
  /// retries cost no simulated time.
  SimTime retry_backoff = 0;
  /// Adaptive retries: once any probe in the current measurement needed
  /// a retry to elicit a response (a live transient-loss signal), later
  /// probes may spend up to this many retries instead of `retries`.
  /// Inert on clean networks, where no probe ever recovers via retry.
  int adaptive_max_retries = 6;
  /// Early-abort heuristic for fully blackholed ICMP (satellite fix):
  /// once a sweep has seen this many consecutive silent hops from TTL 1
  /// with *zero* ICMP anywhere in the measurement so far and no
  /// retry-recovered probe (i.e. the silence cannot be loss), the ICMP
  /// channel is declared dead and later timeout probes in the sweep stop
  /// burning the retry/backoff budget. Provably inert whenever any
  /// router answers or any retry recovers. 0 disables.
  int silent_channel_abort = 8;

  /// Digest over every option (campaign cache-key component).
  std::uint64_t fingerprint() const;
};

/// Reliability annotations for a CenTrace verdict, computed from the
/// repetition set itself — how much the sweeps agreed, whether the
/// control path looked rate-limited or churned, and how much transient
/// loss the retry layer absorbed. `overall` is 1.0 on a clean network.
struct TraceConfidence {
  double overall = 1.0;
  /// Share of test sweeps agreeing with the majority terminating response.
  double response_agreement = 1.0;
  /// Among agreeing sweeps, share that also agree on the terminating TTL.
  double ttl_agreement = 1.0;
  /// Mean per-hop agreement of the control sweeps (majority router IP or
  /// consistent silence at every hop = 1.0).
  double control_path_stability = 1.0;
  /// Some control sweeps got an ICMP from a hop while others timed out at
  /// it with the *same* router answering otherwise — the signature of
  /// ICMP rate limiting (or heavy loss) rather than a silent router.
  bool icmp_rate_limited = false;
  /// Two or more distinct router IPs observed at one hop across control
  /// sweeps — ECMP path variance or active route flapping.
  bool path_churn = false;
  /// Probes that only answered after one or more retries (absorbed loss).
  int loss_recovered_probes = 0;
  /// Per-control-hop agreement share (parallel to control_path).
  std::vector<double> hop_confidence;
};

struct CenTraceReport {
  std::string test_domain;
  std::string control_domain;
  net::Ipv4Address endpoint;
  ProbeProtocol protocol = ProbeProtocol::kHttp;

  bool blocked = false;
  BlockingType blocking_type = BlockingType::kNone;
  BlockingLocation location = BlockingLocation::kNotBlocked;
  DevicePlacement placement = DevicePlacement::kUnknown;

  /// Majority terminating TTL of the Test sweeps, after TTL-copy correction.
  int blocking_hop_ttl = -1;
  /// IP at the blocking hop on the Control path (in-path device candidate).
  std::optional<net::Ipv4Address> blocking_hop_ip;
  std::optional<geo::AsInfo> blocking_as;
  /// Endpoint hop distance measured by the Control sweeps (-1 if unreached).
  int endpoint_hop_distance = -1;
  bool ttl_copy_detected = false;
  std::optional<std::string> blockpage_vendor;  // from fingerprint match

  /// Features of the injected packet at the terminating hop, if any.
  std::optional<net::Packet> injected_packet;

  /// Tracebox-style quote analysis from the Control sweeps.
  std::vector<QuoteDiff> quote_diffs;

  /// How trustworthy this verdict is given the observed conditions.
  TraceConfidence confidence;

  /// Channel health + degradation-ladder outcome (always populated).
  DegradationInfo degradation;

  /// Majority Control-path IP per hop (nullopt = silent hop).
  std::vector<std::optional<net::Ipv4Address>> control_path;

  std::vector<SingleTrace> control_traces;
  std::vector<SingleTrace> test_traces;
};

class CenTrace {
 public:
  CenTrace(sim::Network& network, sim::NodeId client, CenTraceOptions options = {});

  /// Run a full CenTrace measurement: repeated Control sweeps, repeated
  /// Test sweeps, aggregation, localisation and classification.
  CenTraceReport measure(net::Ipv4Address endpoint, const std::string& test_domain,
                         const std::string& control_domain);

  /// One sweep (exposed for tests and the ablation bench).
  SingleTrace sweep(net::Ipv4Address endpoint, const std::string& domain);

  const CenTraceOptions& options() const { return options_; }

  /// Serialize the probe payload for `protocol` + `domain` (shared with
  /// the tomography escalation, which sends the same wire bytes).
  static Bytes make_payload(ProbeProtocol protocol, const std::string& domain);

 private:
  Bytes build_payload(const std::string& domain) const;
  /// Cached wire payload for `domain` (the protocol is fixed per instance,
  /// so one entry per domain serves every repetition of every sweep).
  const Bytes& payload_for(const std::string& domain);
  HopObservation probe(net::Ipv4Address endpoint, const Bytes& payload, int ttl,
                       const std::string& domain, bool allow_retries = true);
  /// Fill report.degradation from the channel-health evidence (mode is
  /// assigned before any tomography escalation, which may upgrade it).
  void assess_degradation(CenTraceReport& report) const;
  void aggregate(CenTraceReport& report) const;
  void score_confidence(CenTraceReport& report) const;
  /// Retry budget for the next probe (adaptive under observed loss) and
  /// the backoff pause before retry `attempt`.
  int retry_budget() const;
  void backoff_wait(int attempt);

  sim::Network& network_;
  sim::NodeId client_;
  CenTraceOptions options_;
  /// Probes in the current measurement that answered only after retries —
  /// the live loss signal driving the adaptive retry budget.
  int loss_recovered_probes_ = 0;
  /// Whether any ICMP arrived in the current measurement. While false
  /// (and with no recovered loss) the silent-channel-abort heuristic may
  /// declare the ICMP channel dead; one quote anywhere disables it.
  bool icmp_seen_ = false;
  /// Sweeps of the current measurement that hit the dead-channel abort.
  int dead_channel_sweeps_ = 0;
  /// Serialized payloads by domain, built once instead of per sweep.
  /// Flat storage: a measurement touches two domains (test + control), so
  /// lookups are a short sorted-vector scan. References returned by
  /// payload_for() are invalidated by the next insertion — callers hold
  /// them for at most one sweep, and sweeps never insert.
  core::FlatMap<std::string, Bytes> payload_cache_;
  /// Reusable event buffer for probe() sends (cleared by send_into); keeps
  /// the per-probe vector allocation out of the hot loop.
  std::vector<sim::Event> events_scratch_;
};

struct DegradationPlan;  // centrace/degrade.hpp

/// One complete CenTrace invocation for the unified tool API: the
/// measurement subject plus the tool's tuning options.
struct TraceRunOptions {
  sim::NodeId client = sim::kInvalidNode;
  net::Ipv4Address endpoint;
  std::string test_domain;
  std::string control_domain;
  CenTraceOptions trace;
  /// When set, run() resets the network to this epoch
  /// (Network::reset_epoch) before measuring.
  std::optional<std::uint64_t> seed;
  /// Optional degradation/escalation plan (multi-vantage tomography when
  /// ICMP localisation fails). Null = plain CenTrace, prior behaviour.
  const DegradationPlan* degradation = nullptr;
};

/// Unified entry point (same shape as probe::run / fuzz::run): run one
/// measurement on `network`, attaching `observer` for its duration (the
/// previous observer is restored on return, exception-safe).
CenTraceReport run(sim::Network& network, const TraceRunOptions& options,
                   obs::Observer* observer = nullptr);

}  // namespace cen::trace

// cenambig — fingerprinting DPI devices by their reassembly ambiguities.
//
// Banner-based identification (CenProbe, §5) dies the moment a vendor
// blocks management-plane probes. This tool instead crafts probe sequences
// whose *interpretation* is ambiguous — overlapping TCP segments, TTL-
// limited insertion packets that reach the middlebox but not the endpoint,
// out-of-order delivery, bad-checksum decoys — and classifies devices by
// their discrepancy vector: per probe, did the censor trigger while the
// endpoint-visible payload stayed clean (or vice versa)? Two devices with
// identical rule sets but different ReassemblyQuirks produce different
// vectors, which is exactly the signal the clustering stage needs when
// every banner is dark ("Fingerprinting DPI Devices by Their Ambiguities").
//
// Each catalogue probe is issued as a (test, control) pair of segment
// sequences with the same wire shape — only the classifiable domain
// differs — over fresh connections, majority-voted across repetitions.
// The discrepancy bit is set when the test variant is blocked while the
// control variant is clean; a blocked control makes the probe untestable
// (NaN in the feature vector).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/clock.hpp"
#include "core/strings.hpp"
#include "netsim/engine.hpp"

namespace cen::ambig {

/// The ambiguity axis a probe targets. Catalogue order is the feature
/// order — append only.
enum class ProbeKind : std::uint8_t {
  kBaselineForbidden,  // whole forbidden request in one segment (sanity)
  kBaselineBenign,     // whole benign request in one segment (sanity)
  kSplitHost,          // Host header split across two in-order segments
  kTlsSplitSni,        // ClientHello split mid-record (SNI divided)
  kOutOfOrder,         // middle segment sent first (B, A, C)
  kOverlapFirst,       // forbidden first, benign overwrite (first-wins sees it)
  kOverlapLast,        // benign first, forbidden overwrite (last-wins sees it)
  kInsertionTtl,       // forbidden completion with TTL dying before endpoint
  kInsertionChecksum,  // forbidden completion with a corrupt TCP checksum
};

struct ProbeSpec {
  ProbeKind kind;
  std::string_view name;
  bool https = false;                // sent to 443 as a ClientHello shape
  bool needs_insertion_ttl = false;  // untestable without a measured distance
};

/// The stable probe catalogue; discrepancy-vector entries (and the ml
/// feature columns) follow this order.
const std::vector<ProbeSpec>& probe_catalogue();

/// Pad the leftmost label of `domain` with leading 'w's until the whole
/// name reaches `target` length. Suffix/registrable rules still match the
/// padded name and subdomain-tolerant servers still answer it — this is
/// how overlap/insertion probes make their two domains byte-interchangeable.
std::string pad_domain(const std::string& domain, std::size_t target);

/// Build one probe variant's wire segments. `primary` rides in the
/// position the censor may extract (the test variant passes the forbidden
/// domain, the control variant the benign one); `filler` is the benign
/// counterpart used in the non-classifiable position of overlap/insertion
/// shapes. `insertion_ttl` is only read by kInsertionTtl.
std::vector<sim::SegmentSpec> build_segments(ProbeKind kind,
                                             const std::string& primary,
                                             const std::string& filler,
                                             int insertion_ttl);

/// How one probe attempt terminated at the client.
enum class ProbeOutcome : std::uint8_t { kData, kRst, kFin, kBlockpage, kTimeout };
inline constexpr std::string_view kProbeOutcomeNames[] = {"data", "rst", "fin", "blockpage",
                                                          "timeout"};
constexpr std::string_view probe_outcome_name(ProbeOutcome o) {
  return enum_name(kProbeOutcomeNames, o);
}
bool outcome_blocked(ProbeOutcome o);

struct AmbigOptions {
  /// Repetitions per (probe, variant) pair, majority-voted.
  int repetitions = 3;
  /// Connect/timeout retries per attempt before declaring a drop.
  int retries = 2;
  /// Simulated-time pacing: blocked probes wait out residual-blocking
  /// windows; clean ones advance a polite inter-probe gap.
  SimTime wait_after_blocked = 120 * kSecond;
  SimTime wait_after_ok = 3 * kSecond;
  /// Simulated-time wait before a retry, doubled per further attempt.
  SimTime retry_backoff = 0;
  /// TTL ceiling of the endpoint-distance mini-sweep.
  int max_distance_ttl = 24;
  /// Deterministic permutation of probe execution order (0 = catalogue
  /// order). The report is always in catalogue order; cencheck permutes
  /// this salt to assert order-invariance of the discrepancy vector.
  std::uint64_t order_salt = 0;

  /// Digest over every option (campaign cache-key component).
  std::uint64_t fingerprint() const;
};

/// Verdict for one catalogue probe.
struct AmbigProbeResult {
  std::string name;
  ProbeOutcome test_outcome = ProbeOutcome::kData;     // first repetition
  ProbeOutcome control_outcome = ProbeOutcome::kData;  // first repetition
  int test_blocked_votes = 0;
  int control_clean_votes = 0;
  int repetitions = 0;
  /// Majority: test blocked AND control clean.
  bool discrepant = false;
  /// False when the control variant was not majority-clean (collateral
  /// blocking / loss) or the probe needs an unmeasurable insertion TTL.
  bool testable = true;
};

struct AmbigReport {
  net::Ipv4Address endpoint;
  std::string test_domain;
  std::string control_domain;
  /// The baseline-forbidden probe's majority verdict: without blocking
  /// there is nothing to fingerprint and every bit reads 0.
  bool baseline_blocked = false;
  /// Hop distance of the endpoint from the TTL mini-sweep (-1 unmeasured).
  int endpoint_distance = -1;
  /// TTL stamped on insertion segments (reaches middleboxes, not the
  /// endpoint); -1 when the distance could not be measured.
  int insertion_ttl = -1;
  /// One entry per catalogue probe, in catalogue order.
  std::vector<AmbigProbeResult> probes;
  std::size_t total_probes_sent = 0;

  /// Per-probe feature values in catalogue order: 1.0 discrepant, 0.0 not,
  /// NaN untestable.
  std::vector<double> discrepancy_vector() const;
};

class CenAmbig {
 public:
  CenAmbig(sim::Network& network, sim::NodeId client, AmbigOptions options = {});

  /// Run the full catalogue against one (endpoint, test domain) pair.
  AmbigReport run(net::Ipv4Address endpoint, const std::string& test_domain,
                  const std::string& control_domain);

  /// Issue one segment sequence on a fresh connection and classify the
  /// outcome (exposed for tests).
  ProbeOutcome issue(net::Ipv4Address endpoint, bool https,
                     const std::vector<sim::SegmentSpec>& segments);

  /// TTL mini-sweep with the benign domain: smallest TTL whose request
  /// elicits endpoint data, or -1. Exposed for tests.
  int measure_distance(net::Ipv4Address endpoint, const std::string& control_domain);

 private:
  sim::Network& network_;
  sim::NodeId client_;
  AmbigOptions options_;
};

/// One complete cenambig invocation for the unified tool API.
struct AmbigRunOptions {
  sim::NodeId client = sim::kInvalidNode;
  net::Ipv4Address endpoint;
  std::string test_domain;
  std::string control_domain;
  AmbigOptions ambig;
  /// When set, run() resets the network to this epoch before probing.
  std::optional<std::uint64_t> seed;
};

/// Unified entry point (same shape as trace::run / probe::run / fuzz::run):
/// fingerprint one endpoint's path on `network`, attaching `observer` for
/// the duration (the previous observer is restored on return).
AmbigReport run(sim::Network& network, const AmbigRunOptions& options,
                obs::Observer* observer = nullptr);

}  // namespace cen::ambig

// CenFuzz runner (paper §6.2): deterministic fuzzing of blocked connections.
//
// For each strategy permutation the runner issues four logical requests —
// Normal Test, Normal Control, Permuted Test, Permuted Control — and
// classifies the permutation:
//   successful      Normal Test blocked, Permuted Test NOT blocked,
//                   Permuted Control NOT blocked (the mutation evades);
//   not successful  Normal Test blocked, Permuted Test blocked,
//                   Permuted Control NOT blocked (the rule still fires);
//   untestable      anything else (endpoint rejects the mutation outright,
//                   control blocked, or no blocking to begin with).
// A *circumvention* additionally requires the permuted Test request to
// fetch legitimate content from the endpoint (§6.3's distinction between
// evasion and circumvention).
//
// Blocking is judged conservatively exactly as in §4.1: repeated packet
// drops, connection resets, or a known blockpage.
//
// Every device gets the same permutation tables (Table 2), so a caller
// that fuzzes many endpoints builds one ProbeSet per domain and passes it
// to each run (FuzzRunOptions::test_probes / control_probes); without
// one, a run builds its own. A request costs its packet walk: it is sent
// from the probe table's bytes into an event buffer the runner reuses
// across requests, replies are classified in place (HttpResponse::view,
// ServerHello::view), and only Test requests, whose content decides
// circumvention, describe their reply as a string.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cenfuzz/strategies.hpp"
#include "core/clock.hpp"
#include "core/strings.hpp"
#include "netsim/engine.hpp"

namespace cen::fuzz {

enum class FuzzOutcome : std::uint8_t { kNotSuccessful, kSuccessful, kUntestable };
inline constexpr std::string_view kFuzzOutcomeNames[] = {"not-successful", "successful",
                                                         "untestable"};
constexpr std::string_view fuzz_outcome_name(FuzzOutcome o) {
  return enum_name(kFuzzOutcomeNames, o);
}

/// How one request terminated.
enum class RequestResult : std::uint8_t {
  kOk,          // got an application response (any status / handshake / alert)
  kDropTimeout, // repeated packet drops
  kRst,
  kFin,
  kBlockpage,
};
bool request_blocked(RequestResult r);

struct FuzzMeasurement {
  std::string strategy;
  std::string permutation;
  bool https = false;
  RequestResult test_result = RequestResult::kOk;
  RequestResult control_result = RequestResult::kOk;
  FuzzOutcome outcome = FuzzOutcome::kUntestable;
  bool circumvented = false;
  /// The permuted Control request was blocked — the per-strategy baseline
  /// failed (loss or collateral blocking), so this strategy was recorded
  /// as untestable and skipped rather than aborting the run.
  bool baseline_failed = false;
};

struct CenFuzzOptions {
  int retries = 2;  // per-request retries before declaring a drop
  SimTime wait_after_blocked = 120 * kSecond;
  SimTime wait_after_ok = 3 * kSecond;
  bool run_http = true;
  bool run_tls = true;
  /// Rounds of the Normal Test/Control baseline pair, majority-voted.
  /// Raise on lossy networks so one dropped baseline request cannot
  /// write off a whole protocol. 1 = single round (fault-free default).
  int baseline_attempts = 1;

  /// Digest over every option (campaign cache-key component).
  std::uint64_t fingerprint() const;
};

struct CenFuzzReport {
  net::Ipv4Address endpoint;
  std::string test_domain;
  std::string control_domain;
  /// Baseline blocking state (if the Normal Test request isn't blocked
  /// there is nothing to fuzz and `measurements` stays empty for that
  /// protocol).
  bool http_baseline_blocked = false;
  bool tls_baseline_blocked = false;
  std::vector<FuzzMeasurement> measurements;
  std::size_t total_requests = 0;
  /// Strategies recorded untestable because their own Control baseline
  /// failed (see FuzzMeasurement::baseline_failed).
  std::size_t skipped_strategies = 0;
};

class CenFuzz {
 public:
  CenFuzz(sim::Network& network, sim::NodeId client, CenFuzzOptions options = {});

  /// Fuzz every strategy against one (endpoint, test domain) pair. The
  /// probe tables of either domain may be passed in (built for that
  /// domain); a null one is built for this run.
  CenFuzzReport run(net::Ipv4Address endpoint, const std::string& test_domain,
                    const std::string& control_domain, const ProbeSet* test_probes = nullptr,
                    const ProbeSet* control_probes = nullptr);

  /// Issue one request and classify its termination (exposed for tests).
  /// When `response_body` is given, an application reply is described
  /// there ("HTTP:<status>:<body>", "TLSCERT:<domain>" or "TLSALERT").
  RequestResult issue(net::Ipv4Address endpoint, const FuzzProbe& probe,
                      std::string* response_body = nullptr);

 private:
  sim::Network& network_;
  sim::NodeId client_;
  CenFuzzOptions options_;
  /// What the client receives for a request: cleared and refilled by each
  /// send, its capacity kept across requests.
  std::vector<sim::Event> events_;
};

/// One complete CenFuzz invocation for the unified tool API.
struct FuzzRunOptions {
  sim::NodeId client = sim::kInvalidNode;
  net::Ipv4Address endpoint;
  std::string test_domain;
  std::string control_domain;
  CenFuzzOptions fuzz;
  /// When set, run() resets the network to this epoch before fuzzing.
  std::optional<std::uint64_t> seed;
  /// Probe tables for test_domain and control_domain, shared read-only
  /// between runs (ProbeSet::build). Null = build them for this run.
  std::shared_ptr<const ProbeSet> test_probes;
  std::shared_ptr<const ProbeSet> control_probes;
};

/// Unified entry point (same shape as trace::run / probe::run): run one
/// fuzzing campaign on `network`, attaching `observer` for its duration
/// (the previous observer is restored on return, exception-safe). Throws
/// std::invalid_argument if a probe table was built for another domain.
CenFuzzReport run(sim::Network& network, const FuzzRunOptions& options,
                  obs::Observer* observer = nullptr);

}  // namespace cen::fuzz

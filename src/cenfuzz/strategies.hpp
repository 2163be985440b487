// CenFuzz strategy catalogue (paper Table 2).
//
// 16 HTTP-request strategies and 8 TLS-ClientHello strategies, each
// expanding to a fixed, deterministic list of permutations — the paper's
// core design point: the *same* probe set is sent to every device, so the
// per-strategy outcome vector is a comparable fingerprint across devices.
// Permutation counts reproduce Table 2 exactly (6/16/7/8/5/10/10/59 for
// the HTTP Alternate family, 8/16/16 Capitalize, 7/167/63/3 Remove, 9 Pad;
// 4/4/25/3/4/10/10/9 for TLS).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/bytes.hpp"

namespace cen::fuzz {

/// One concrete fuzzed probe: exact wire bytes plus bookkeeping.
struct FuzzProbe {
  std::string strategy;     // e.g. "Get Word Alt."
  std::string permutation;  // human-readable descriptor, e.g. "PUT"
  bool https = false;
  Bytes payload;
  /// "Client Certificate Alt." metadata: CN the client would present later
  /// in the handshake (no deployment in the paper inspected it).
  std::optional<std::string> client_cert_cn;
};

/// Catalogue row (Table 2).
struct StrategyInfo {
  std::string category;  // Alternate / Capitalize / Remove / Pad
  std::string name;
  int permutations = 0;
  bool https = false;
  /// The row's generator: its probes for a domain, each carrying `name`
  /// as its strategy.
  std::vector<FuzzProbe> (*expand)(const std::string& strategy, const std::string& domain) =
      nullptr;
};

/// The full Table 2 catalogue, in paper order.
const std::vector<StrategyInfo>& strategy_catalogue();

/// Expand every HTTP strategy for a domain (410 probes).
std::vector<FuzzProbe> http_probes(const std::string& domain);
/// Expand every TLS strategy for a domain (69 probes).
std::vector<FuzzProbe> tls_probes(const std::string& domain);
/// Every HTTP and TLS probe for one domain. A fuzz stage builds one per
/// distinct domain and shares it read-only between its runs.
struct ProbeSet {
  std::string domain;
  std::vector<FuzzProbe> http;  // http_probes(domain)
  std::vector<FuzzProbe> tls;   // tls_probes(domain)

  static ProbeSet build(const std::string& domain);
};

/// Expand one named strategy only.
std::vector<FuzzProbe> probes_for_strategy(const std::string& name, const std::string& domain);

/// The unfuzzed baseline request ("Normal" in the paper's Fig. 5).
FuzzProbe normal_http_probe(const std::string& domain);
FuzzProbe normal_tls_probe(const std::string& domain);

/// Case permutations of a word (all 2^min(len,limit) combos, deterministic).
std::vector<std::string> case_permutations(const std::string& word);
/// Deterministic subset-removal permutations of a word: all ways to delete
/// 1..len characters, enumerated smallest-deletion-first, capped at `limit`.
std::vector<std::string> removal_permutations(const std::string& word, std::size_t limit);

}  // namespace cen::fuzz

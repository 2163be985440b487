// Shared run-option fields for the unified tool entry points.
//
// Every tool stage exposes the same signature shape —
//   run(Network&, const <Tool>RunOptions&, obs::Observer*)
// — and every <Tool>RunOptions embeds one CommonRunOptions. The retry
// budget, retry backoff and measurement-epoch seed used to be duplicated
// across the tools under per-tool names; hoisting them here means the
// CLIs populate them in exactly one place (cli::parse_common) and each
// run() applies them with one call.
#pragma once

#include <cstdint>
#include <optional>

#include "core/clock.hpp"
#include "core/fingerprint.hpp"

namespace cen::tool {

/// Cross-tool run options. Every field is optional: unset means "keep the
/// tool's own default", so a default-constructed CommonRunOptions is inert
/// and embedding it changes no existing behaviour.
struct CommonRunOptions {
  /// Per-probe/request retry budget (CenTrace's adaptive ceiling, CenFuzz
  /// and cenambig per-request retries).
  std::optional<int> retries;
  /// Simulated-time backoff before a retry, doubled per further attempt.
  std::optional<SimTime> backoff;
  /// When set, run() resets the network to this deterministic epoch
  /// (Network::reset_epoch) before measuring — the hermetic-task contract
  /// without the caller touching the network first.
  std::optional<std::uint64_t> seed;

  bool operator==(const CommonRunOptions&) const = default;

  /// Digest over every field (campaign cache-key component).
  std::uint64_t fingerprint() const {
    FingerprintBuilder fp;
    fp.mix(retries.has_value());
    fp.mix(static_cast<std::uint64_t>(retries.value_or(0)));
    fp.mix(backoff.has_value());
    fp.mix(static_cast<std::uint64_t>(backoff.value_or(0)));
    fp.mix(seed.has_value());
    fp.mix(seed.value_or(0));
    return fp.digest();
  }
};

}  // namespace cen::tool

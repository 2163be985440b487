// Recog-style fingerprint matching and the full CenProbe pipeline
// (paper §5): scan → grab → label.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cenprobe/bannergrab.hpp"

namespace cen::probe {

/// One fingerprint rule: if a banner (optionally restricted to one
/// protocol) contains `pattern` (case-insensitive), it identifies `vendor`.
struct Fingerprint {
  std::string protocol;  // "" = any protocol
  std::string pattern;
  std::string vendor;
};

/// The built-in fingerprint repository (mirrors Rapid7 Recog entries for
/// the vendors the paper identifies).
const std::vector<Fingerprint>& fingerprint_db();

/// Match one banner against the repository.
std::optional<std::string> match_fingerprint(const BannerGrab& grab);

/// Full probe result for one potential device IP.
struct DeviceProbeReport {
  net::Ipv4Address ip;
  std::vector<std::uint16_t> open_ports;
  std::vector<BannerGrab> banners;
  /// Vendor label when any banner matched a fingerprint.
  std::optional<std::string> vendor;
  /// Nmap-style TCP-stack fingerprint (needs >=1 open port to probe).
  std::optional<censor::StackFingerprint> stack;
  bool has_any_service() const { return !open_ports.empty(); }
};

/// One complete CenProbe invocation for the unified tool API. Probing is
/// clientless (the management plane is reached out-of-band), so the
/// subject is just the device IP.
struct ProbeRunOptions {
  net::Ipv4Address ip;
  /// When set, run() resets the network to this epoch before the scan.
  std::optional<std::uint64_t> seed{};
};

/// Unified entry point (same shape as trace::run / fuzz::run): probe one
/// device IP on `network`, attaching `observer` for the duration (the
/// previous observer is restored on return, exception-safe).
DeviceProbeReport run(sim::Network& network, const ProbeRunOptions& options,
                      obs::Observer* observer = nullptr);

}  // namespace cen::probe

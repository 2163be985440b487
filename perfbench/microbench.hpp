// Per-call costs of the wire codecs (net) and the DPI layer (censor),
// measured on one workload's own domains, devices and client→endpoint
// pairs. These are not additive with the replay's spans: each row is the
// median cost of one call.
#pragma once

#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What one site's tasks touched.
struct MicroSubjects {
  const Site* site = nullptr;
  std::vector<cen::net::Ipv4Address> endpoints;
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;
};

/// Append the net.*, censor.*, netsim.route_miss_us.p50 and
/// netsim.send_us.p50 rows to `out`.
void micro_metrics(const std::vector<MicroSubjects>& subjects, Metrics& out);

}  // namespace perfbench

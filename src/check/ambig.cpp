// cencheck `ambig` engine: the invariants behind the ambiguity-
// fingerprinting subsystem.
//
//   inert-equivalence    a device with default (inert) ReassemblyQuirks
//                        classifies unsegmented traffic byte-identically
//                        to the pre-reassembly per-packet path (the
//                        assembled-bypass oracle);
//   same-seed replay     two cenambig runs with identical options and
//                        measurement-epoch seed produce byte-identical
//                        reports;
//   order stability      the discrepancy vector is invariant under a
//                        permuted probe execution order (order_salt).
#include <string>

#include "cenambig/cenambig.hpp"
#include "censor/device.hpp"
#include "censor/vendors.hpp"
#include "check/engines.hpp"
#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "report/json_report.hpp"
#include "scenario/ambig.hpp"
#include "scenario/builder.hpp"

namespace cen::check {

namespace {

/// A random complete single-packet payload of the kinds the pre-PR engine
/// classified inline: an HTTP request or a TLS ClientHello over a domain
/// that may or may not match the device's rules.
Bytes random_message(Rng& rng, const std::string& forbidden) {
  const std::string domains[] = {forbidden, "w" + forbidden, "benign.example",
                                 "cdn." + forbidden, "example.net"};
  const std::string& d = domains[rng.index(5)];
  if (rng.chance(0.4)) return net::ClientHello::make(d).serialize();
  return net::HttpRequest::get(d).serialize_bytes();
}

}  // namespace

void run_ambig_case(CaseContext& ctx) {
  // ---- 1. Inert-equivalence oracle. ----
  {
    censor::DeviceConfig cfg;
    cfg.id = "ambig-check";
    censor::RuleSet rules;
    rules.add("blocked.example", censor::MatchStyle::kSuffix);
    cfg.http_rules = rules;
    cfg.sni_rules = rules;
    // Inert by default; the bypassed twin is the pre-PR per-packet path.
    censor::Device with_reassembly(cfg);
    censor::Device bypassed(cfg);
    bypassed.set_assembled_bypass(true);

    const int n = std::max(4, ctx.budget * 4);
    std::uint32_t seq = ctx.rng.next() & 0xffff;
    for (int i = 0; i < n; ++i) {
      Bytes payload = random_message(ctx.rng, "www.blocked.example");
      net::Packet pkt = net::make_tcp_packet(
          net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 9, 9, 9), 40000, 80,
          net::TcpFlags::kPsh | net::TcpFlags::kAck, seq, 1, payload);
      seq += static_cast<std::uint32_t>(payload.size());
      const SimTime now = static_cast<SimTime>(i) * 10;
      censor::Verdict a = with_reassembly.inspect(pkt, now);
      censor::Verdict b = bypassed.inspect(pkt, now);
      ctx.expect(a.triggered == b.triggered && a.drop == b.drop,
                 "ambig.inert_equivalence",
                 "inert reassembly diverged from the per-packet path on message " +
                     std::to_string(i));
    }
  }

  // ---- 2. Same-seed replay + 3. order stability. ----
  scenario::AmbigScenarioOptions sopts;
  sopts.deployments_per_vendor = 1;
  const std::uint64_t world_seed = ctx.rng.next();
  scenario::AmbigScenario s = scenario::make_ambig(sopts, world_seed);

  ambig::AmbigRunOptions ropts;
  ropts.client = s.client;
  const std::size_t pick = ctx.rng.index(s.deployments.size());
  ropts.endpoint = s.deployments[pick].endpoint;
  ropts.test_domain = s.test_domain;
  ropts.control_domain = s.control_domain;
  ropts.ambig.repetitions = 1;  // keep one check case cheap
  ropts.ambig.retries = 0;
  ropts.seed = ctx.rng.next();

  ambig::AmbigReport first = ambig::run(*s.network, ropts);
  ambig::AmbigReport replay = ambig::run(*s.network, ropts);
  ctx.expect(report::to_json(first) == report::to_json(replay), "ambig.same_seed",
             "same-seed cenambig replay diverged against " +
                 s.deployments[pick].device_id);

  ropts.ambig.order_salt = ctx.rng.next() | 1;  // non-zero: permuted order
  ambig::AmbigReport permuted = ambig::run(*s.network, ropts);
  // NaN-aware elementwise compare (untestable probes read NaN, and
  // NaN != NaN would make vector operator== useless here).
  auto same_vector = [](const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const bool nan_a = a[i] != a[i];
      const bool nan_b = b[i] != b[i];
      if (nan_a != nan_b) return false;
      if (!nan_a && a[i] != b[i]) return false;
    }
    return true;
  };
  ctx.expect(same_vector(first.discrepancy_vector(), permuted.discrepancy_vector()),
             "ambig.order_stability",
             "discrepancy vector changed under permuted probe order (salt " +
                 std::to_string(ropts.ambig.order_salt) + ") against " +
                 s.deployments[pick].device_id);
}

}  // namespace cen::check

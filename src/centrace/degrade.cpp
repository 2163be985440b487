#include "centrace/degrade.hpp"

#include <algorithm>

#include "censor/vendors.hpp"
#include "core/fingerprint.hpp"
#include "core/seed_salts.hpp"
#include "net/http.hpp"
#include "obs/observer.hpp"

namespace cen::trace {

std::uint64_t DegradationPlan::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(tomography);
  fp.mix(static_cast<std::uint64_t>(vantages.size()));
  for (sim::NodeId v : vantages) fp.mix(static_cast<std::uint64_t>(v));
  fp.mix(static_cast<std::uint64_t>(rounds));
  fp.mix(static_cast<std::uint64_t>(round_spacing));
  fp.mix(static_cast<std::uint64_t>(control_path_retries));
  fp.mix(solver.fingerprint());
  return fp.digest();
}

namespace {

enum class EndToEndVerdict { kBlocked, kClean, kSilent };

/// Boolean end-to-end verdict of a full-TTL probe: an injected
/// RST/FIN/blockpage marks the path blocked, genuine endpoint data marks
/// it clean, and silence is indeterminate (outage vs drop-censor) until
/// a control probe vouches for the path.
EndToEndVerdict classify_events(const std::vector<sim::Event>& events) {
  bool data = false;
  bool injected = false;
  for (const sim::Event& ev : events) {
    const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
    if (tcp == nullptr) continue;
    const net::Packet& pkt = tcp->packet;
    if (pkt.tcp.has(net::TcpFlags::kRst) || pkt.tcp.has(net::TcpFlags::kFin)) {
      injected = true;
    } else if (!pkt.payload.empty()) {
      auto resp = net::HttpResponse::view(as_text(pkt.payload));
      if (resp && censor::match_blockpage(resp->body)) {
        injected = true;
      } else {
        data = true;  // HTTP page / TLS handshake / DNS answer
      }
    } else {
      data = true;
    }
  }
  if (injected) return EndToEndVerdict::kBlocked;
  if (data) return EndToEndVerdict::kClean;
  return EndToEndVerdict::kSilent;
}

/// Multi-vantage escalation: build the path-observation matrix and run
/// the minimal-blocking-link-set solver. Upgrades report.degradation to
/// kTomography on success.
void escalate_tomography(sim::Network& network, sim::NodeId client,
                         net::Ipv4Address endpoint, const std::string& test_domain,
                         const std::string& control_domain,
                         const CenTraceOptions& options, const DegradationPlan& plan,
                         CenTraceReport& report) {
  obs::Observer* o = network.observer();
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network.clock(),
                       "tomography:" + test_domain, "tomography");

  const std::uint16_t port = options.protocol == ProbeProtocol::kHttps ? 443
                             : options.protocol == ProbeProtocol::kDns ? 53
                                                                       : 80;
  const Bytes test_payload = CenTrace::make_payload(options.protocol, test_domain);
  const Bytes control_payload = CenTrace::make_payload(options.protocol, control_domain);

  std::vector<sim::NodeId> vantages;
  vantages.push_back(client);
  for (sim::NodeId v : plan.vantages) {
    if (std::find(vantages.begin(), vantages.end(), v) == vantages.end()) {
      vantages.push_back(v);
    }
  }

  tomo::ObservationMatrix matrix;
  for (std::size_t vi = 0; vi < vantages.size(); ++vi) {
    const std::vector<SimTime> delays =
        tomo::probe_round_delays(network.seed(), salts::kTomography, static_cast<int>(vi),
                                 plan.rounds, plan.round_spacing);
    for (SimTime delay : delays) {
      // The jittered advance walks probes across route-flap epochs, and
      // every fresh connection re-rolls the ECMP flow hash — both vary
      // the sampled path, which is what gives the matrix rank.
      network.clock().advance(delay);
      if (o != nullptr) o->tools().tomo_probes->inc();
      sim::Connection conn = network.open_connection(vantages[vi], endpoint, port);
      if (conn.connect() != sim::ConnectResult::kEstablished) continue;
      const std::vector<sim::Event> events = conn.send(test_payload, 64);
      const std::vector<sim::NodeId>& path = conn.path();
      EndToEndVerdict verdict = classify_events(events);
      if (verdict == EndToEndVerdict::kSilent) {
        // Timeout is only censorship evidence when a control probe over
        // the *same* node path gets through (fresh ports may land on a
        // different equal-cost path — retry until one matches).
        bool path_alive = false;
        for (int attempt = 0; attempt <= plan.control_path_retries; ++attempt) {
          if (o != nullptr) o->tools().tomo_probes->inc();
          sim::Connection check = network.open_connection(vantages[vi], endpoint, port);
          if (check.connect() != sim::ConnectResult::kEstablished) continue;
          const std::vector<sim::Event> control_events = check.send(control_payload, 64);
          if (check.path() != path) continue;  // different ECMP branch
          path_alive = classify_events(control_events) == EndToEndVerdict::kClean;
          break;  // same path sampled: its verdict is final
        }
        if (!path_alive) continue;  // outage indistinguishable from censorship
        verdict = EndToEndVerdict::kBlocked;
      }
      tomo::PathObservation row;
      row.path = path;
      row.blocked = verdict == EndToEndVerdict::kBlocked;
      row.vantage = static_cast<int>(vi);
      matrix.add(std::move(row));
      if (o != nullptr) o->tools().tomo_observations->inc();
    }
  }

  report.degradation.vantage_count = static_cast<int>(vantages.size());
  report.degradation.tomography_observations = static_cast<int>(matrix.size());
  const tomo::TomographyResult result = tomo::solve(matrix, plan.solver);
  if (o != nullptr) {
    o->tools().tomo_solves->inc();
    o->journal().record(network.now(), "tomography",
                        test_domain + " rows=" + std::to_string(matrix.size()) +
                            " blocked=" + std::to_string(matrix.blocked_count()) +
                            (result.solved ? " cover=" + std::to_string(result.cover_size)
                                           : " unsolved"));
  }
  if (!result.solved || result.candidates.empty()) return;

  report.degradation.tomography_solved = true;
  report.degradation.mode = DegradationMode::kTomography;
  const sim::Topology& topo = network.topology();
  for (const tomo::LinkBlame& lb : result.candidates) {
    BlamedLink link;
    link.ip_a = topo.node_ip(lb.link.a);
    link.ip_b = topo.node_ip(lb.link.b);
    link.confidence = lb.confidence;
    link.blocked_paths = lb.blocked_paths;
    link.clean_paths = lb.clean_paths;
    report.degradation.candidate_links.push_back(link);
  }
}

}  // namespace

CenTraceReport measure_with_degradation(sim::Network& network, sim::NodeId client,
                                        net::Ipv4Address endpoint,
                                        const std::string& test_domain,
                                        const std::string& control_domain,
                                        const CenTraceOptions& options,
                                        const DegradationPlan* plan) {
  CenTrace tool(network, client, options);
  CenTraceReport report = tool.measure(endpoint, test_domain, control_domain);

  // Escalate only when hop-level localisation failed outright: a blocked
  // verdict with no blocking-hop IP. (kIcmpDegraded keeps its hop —
  // tomography would add nothing the report does not already carry.)
  // UDP probing has no connection path to observe, so it cannot escalate.
  if (plan != nullptr && plan->tomography && report.blocked &&
      report.degradation.mode == DegradationMode::kUnlocalized &&
      options.protocol != ProbeProtocol::kDnsUdp) {
    escalate_tomography(network, client, endpoint, test_domain, control_domain, options,
                        *plan, report);
  }

  obs::Observer* o = network.observer();
  if (o != nullptr) {
    switch (report.degradation.mode) {
      case DegradationMode::kFull: o->tools().trace_mode_full->inc(); break;
      case DegradationMode::kIcmpDegraded: o->tools().trace_mode_icmp_degraded->inc(); break;
      case DegradationMode::kTomography: o->tools().trace_mode_tomography->inc(); break;
      case DegradationMode::kUnlocalized: o->tools().trace_mode_unlocalized->inc(); break;
    }
    o->journal().record(network.now(), "degrade",
                        test_domain + " mode=" +
                            std::string(degradation_mode_name(report.degradation.mode)) +
                            " icmp_rate=" +
                            std::to_string(report.degradation.icmp_answer_rate) +
                            " dead_sweeps=" +
                            std::to_string(report.degradation.dead_channel_sweeps));
  }
  return report;
}

}  // namespace cen::trace

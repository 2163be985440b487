#include "centrace/centrace.hpp"

#include <algorithm>
#include <map>

#include "centrace/degrade.hpp"

#include "censor/vendors.hpp"
#include "core/fingerprint.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "obs/observer.hpp"

namespace cen::trace {

std::uint64_t CenTraceOptions::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(max_ttl));
  fp.mix(static_cast<std::uint64_t>(retries));
  fp.mix(static_cast<std::uint64_t>(repetitions));
  fp.mix(static_cast<std::uint64_t>(inter_probe_wait));
  fp.mix(static_cast<std::uint64_t>(timeout_run_stop));
  fp.mix(static_cast<std::uint64_t>(protocol));
  fp.mix(static_cast<std::uint64_t>(retry_backoff));
  fp.mix(static_cast<std::uint64_t>(adaptive_max_retries));
  fp.mix(static_cast<std::uint64_t>(silent_channel_abort));
  return fp.digest();
}

CenTrace::CenTrace(sim::Network& network, sim::NodeId client, CenTraceOptions options)
    : network_(network), client_(client), options_(options) {}

Bytes CenTrace::make_payload(ProbeProtocol protocol, const std::string& domain) {
  switch (protocol) {
    case ProbeProtocol::kHttps:
      return net::ClientHello::make(domain).serialize();
    case ProbeProtocol::kDns:
      return net::make_dns_query(domain).serialize_tcp();
    case ProbeProtocol::kDnsUdp:
      return net::make_dns_query(domain).serialize();  // bare, no TCP framing
    case ProbeProtocol::kHttp:
      break;
  }
  return net::HttpRequest::get(domain).serialize_bytes();
}

Bytes CenTrace::build_payload(const std::string& domain) const {
  return make_payload(options_.protocol, domain);
}

const Bytes& CenTrace::payload_for(const std::string& domain) {
  obs::Observer* o = network_.observer();
  auto it = payload_cache_.find(domain);
  if (it == payload_cache_.end()) {
    if (o != nullptr) o->tools().trace_cache_misses->inc();
    it = payload_cache_.emplace(domain, build_payload(domain)).first;
  } else if (o != nullptr) {
    o->tools().trace_cache_hits->inc();
  }
  return it->second;
}

namespace {

/// Classify a bare DNS answer received over UDP.
ProbeResponse classify_udp_dns(const net::UdpDatagram& dgram) {
  try {
    net::DnsMessage answer = net::DnsMessage::parse(dgram.payload);
    if (answer.rcode == net::DnsRcode::kNxDomain) return ProbeResponse::kBlockpage;
    for (const net::DnsAnswer& a : answer.answers) {
      if (censor::match_dns_sinkhole(a.address)) return ProbeResponse::kBlockpage;
    }
    return ProbeResponse::kEndpointData;
  } catch (const ParseError&) {
    return ProbeResponse::kEndpointData;
  }
}

/// Classify one TCP packet received from the endpoint IP.
ProbeResponse classify_tcp(const net::Packet& pkt) {
  if (pkt.tcp.has(net::TcpFlags::kRst)) return ProbeResponse::kTcpRst;
  if (pkt.tcp.has(net::TcpFlags::kFin)) return ProbeResponse::kTcpFin;
  if (!pkt.payload.empty()) {
    if (net::looks_like_tcp_dns(pkt.payload)) {
      try {
        net::DnsMessage answer = net::DnsMessage::parse_tcp(pkt.payload);
        // Injected-answer fingerprints: known sinkhole addresses or an
        // NXDOMAIN for a domain chosen to be resolvable (the DNS analogue
        // of the curated blockpage list).
        if (answer.rcode == net::DnsRcode::kNxDomain) return ProbeResponse::kBlockpage;
        for (const net::DnsAnswer& a : answer.answers) {
          if (censor::match_dns_sinkhole(a.address)) return ProbeResponse::kBlockpage;
        }
        return ProbeResponse::kEndpointData;
      } catch (const ParseError&) {
        return ProbeResponse::kEndpointData;
      }
    }
    if (auto resp = net::HttpResponse::view(as_text(pkt.payload))) {
      if (censor::match_blockpage(resp->body)) return ProbeResponse::kBlockpage;
      return ProbeResponse::kEndpointData;
    }
    return ProbeResponse::kEndpointData;  // TLS ServerHello / alert / other
  }
  return ProbeResponse::kEndpointData;
}

/// Priority for choosing the "response" of a probe when several packets
/// arrive (an on-path censor injects alongside the genuine reply).
int response_rank(ProbeResponse r) {
  switch (r) {
    case ProbeResponse::kBlockpage: return 5;
    case ProbeResponse::kTcpRst: return 4;
    case ProbeResponse::kTcpFin: return 3;
    case ProbeResponse::kEndpointData: return 2;
    case ProbeResponse::kIcmpTtlExceeded: return 1;
    case ProbeResponse::kTimeout: return 0;
  }
  return 0;
}

template <typename T>
std::optional<T> majority(const std::vector<T>& values) {
  std::map<T, int> counts;
  for (const T& v : values) ++counts[v];
  const T* best = nullptr;
  int best_count = 0;
  for (const auto& [v, c] : counts) {
    if (c > best_count) {
      best = &v;
      best_count = c;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace

int CenTrace::retry_budget() const {
  // Escalate only after a probe demonstrably recovered via retry: that
  // signal is impossible on a clean network, so clean measurements run
  // with exactly `retries` attempts — byte-identical to the base budget.
  if (loss_recovered_probes_ > 0) {
    return std::max(options_.retries, options_.adaptive_max_retries);
  }
  return options_.retries;
}

void CenTrace::backoff_wait(int attempt) {
  if (options_.retry_backoff <= 0 || attempt <= 0) return;
  // Exponential: backoff, 2*backoff, 4*backoff, ... before each retry.
  network_.clock().advance(options_.retry_backoff << (attempt - 1));
}

HopObservation CenTrace::probe(net::Ipv4Address endpoint, const Bytes& payload, int ttl,
                               const std::string& domain, bool allow_retries) {
  HopObservation obs;
  obs.ttl = ttl;
  obs::Observer* o = network_.observer();
  if (o != nullptr) o->tools().trace_probes->inc();
  // Journal the probe's outcome (one event per probe, not per attempt).
  auto journal_probe = [&](const HopObservation& result) {
    if (o == nullptr) return;
    o->journal().record(network_.now(), "probe",
                        domain + " ttl=" + std::to_string(ttl) + " -> " +
                            std::string(probe_response_name(result.response)));
  };

  if (options_.protocol == ProbeProtocol::kDnsUdp) {
    // Connectionless probing: one datagram per attempt, fresh source port.
    const int budget = allow_retries ? retry_budget() : 0;
    for (int attempt = 0; attempt <= budget; ++attempt) {
      backoff_wait(attempt);
      if (attempt > 0 && o != nullptr) o->tools().trace_retries->inc();
      std::vector<sim::Event> events =
          network_.send_udp(client_, endpoint, 53, payload, static_cast<std::uint8_t>(ttl));
      if (events.empty()) continue;
      if (attempt > 0) {
        ++loss_recovered_probes_;
        if (o != nullptr) {
          o->tools().trace_retry_recovered->inc();
          o->journal().record(network_.now(), "retry",
                              domain + " ttl=" + std::to_string(ttl) +
                                  " recovered on attempt " + std::to_string(attempt));
        }
      }
      bool got_icmp = false, got_answer = false;
      for (sim::Event& ev : events) {
        if (auto* icmp = std::get_if<sim::IcmpEvent>(&ev)) {
          got_icmp = true;
          if (!obs.icmp_router) {
            obs.icmp_router = icmp->router;
            obs.icmp_quoted = std::move(icmp->quoted);
          }
        } else if (auto* udp = std::get_if<sim::UdpEvent>(&ev)) {
          ProbeResponse r = classify_udp_dns(udp->datagram);
          if (response_rank(r) > response_rank(obs.response)) {
            obs.response = r;
            // Record the datagram's network envelope as the injected-packet
            // fingerprint (ports sit at the same header offsets as TCP's).
            net::Packet carrier;
            carrier.ip = udp->datagram.ip;
            carrier.tcp.src_port = udp->datagram.udp.src_port;
            carrier.tcp.dst_port = udp->datagram.udp.dst_port;
            carrier.payload = std::move(udp->datagram.payload);
            obs.tcp_packet = std::move(carrier);
          }
          got_answer = true;
        }
      }
      if (got_icmp) icmp_seen_ = true;
      if (got_icmp &&
          response_rank(obs.response) < response_rank(ProbeResponse::kIcmpTtlExceeded)) {
        obs.response = ProbeResponse::kIcmpTtlExceeded;
      }
      obs.tcp_and_icmp = got_icmp && got_answer;
      journal_probe(obs);
      return obs;
    }
    obs.response = ProbeResponse::kTimeout;
    journal_probe(obs);
    return obs;
  }

  const std::uint16_t port = options_.protocol == ProbeProtocol::kHttps ? 443
                             : options_.protocol == ProbeProtocol::kDns ? 53
                                                                        : 80;

  const int budget = allow_retries ? retry_budget() : 0;
  for (int attempt = 0; attempt <= budget; ++attempt) {
    backoff_wait(attempt);
    if (attempt > 0 && o != nullptr) o->tools().trace_retries->inc();
    sim::Connection conn = network_.open_connection(client_, endpoint, port);
    if (conn.connect() != sim::ConnectResult::kEstablished) continue;
    // Reuse one event buffer across every probe of the instance: a sweep
    // fires max_ttl x repetitions sends, and the per-send vector was a
    // measurable slice of the malloc load.
    std::vector<sim::Event>& events = events_scratch_;
    conn.send_into(payload, static_cast<std::uint8_t>(ttl), events);
    if (events.empty()) continue;  // transient loss or genuine drop: retry
    if (attempt > 0) {
      ++loss_recovered_probes_;
      if (o != nullptr) {
        o->tools().trace_retry_recovered->inc();
        o->journal().record(network_.now(), "retry",
                            domain + " ttl=" + std::to_string(ttl) +
                                " recovered on attempt " + std::to_string(attempt));
      }
    }

    obs.sent = conn.last_sent();
    // The events are scratch, cleared by the next send: what the
    // observation keeps is moved out of them, not copied.
    bool got_icmp = false;
    bool got_tcp = false;
    for (sim::Event& ev : events) {
      if (auto* icmp = std::get_if<sim::IcmpEvent>(&ev)) {
        got_icmp = true;
        if (!obs.icmp_router) {
          obs.icmp_router = icmp->router;
          obs.icmp_quoted = std::move(icmp->quoted);
        }
      } else if (auto* tcp = std::get_if<sim::TcpEvent>(&ev)) {
        ProbeResponse r = classify_tcp(tcp->packet);
        if (response_rank(r) > response_rank(obs.response)) {
          obs.response = r;
          obs.tcp_packet = std::move(tcp->packet);
        }
        got_tcp = true;
      }
    }
    if (got_icmp) icmp_seen_ = true;
    if (got_icmp && response_rank(obs.response) < response_rank(ProbeResponse::kIcmpTtlExceeded)) {
      obs.response = ProbeResponse::kIcmpTtlExceeded;
    }
    obs.tcp_and_icmp = got_icmp && got_tcp;
    journal_probe(obs);
    return obs;
  }
  // All attempts timed out.
  obs.response = ProbeResponse::kTimeout;
  journal_probe(obs);
  return obs;
}

SingleTrace CenTrace::sweep(net::Ipv4Address endpoint, const std::string& domain) {
  SingleTrace trace;
  trace.domain = domain;
  obs::Observer* o = network_.observer();
  // The span name is built only when someone records it.
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network_.clock(),
                       o != nullptr ? "sweep:" + domain : std::string(), "centrace");
  const Bytes& payload = payload_for(domain);

  int consecutive_timeouts = 0;
  for (int ttl = 1; ttl <= options_.max_ttl; ++ttl) {
    trace.hops.push_back(probe(endpoint, payload, ttl, domain,
                               /*allow_retries=*/!trace.channel_dead));
    // Move-constructed in place above (a HopObservation carries whole
    // packets); read it back by reference.
    const HopObservation& obs = trace.hops.back();
    // Stateful censors track flows for a window; CenTrace spaces probes out
    // (the simulated clock makes the 120 s wait free).
    network_.clock().advance(options_.inter_probe_wait);

    switch (obs.response) {
      case ProbeResponse::kTimeout:
        ++consecutive_timeouts;
        // Early abort under total ICMP starvation (satellite fix): every
        // hop so far silent, no ICMP anywhere in this measurement, and no
        // retry ever recovered (so the silence cannot be transient loss)
        // — the ICMP channel is dead; stop burning the retry/backoff
        // budget on hops that can never answer. The sweep still walks on
        // (single attempts) so the endpoint distance and the verdict are
        // unchanged; only wasted retries are skipped.
        if (!trace.channel_dead && options_.silent_channel_abort > 0 &&
            consecutive_timeouts == ttl && ttl >= options_.silent_channel_abort &&
            !icmp_seen_ && loss_recovered_probes_ == 0) {
          trace.channel_dead = true;
          ++dead_channel_sweeps_;
          if (o != nullptr) {
            o->tools().trace_channel_dead->inc();
            o->journal().record(network_.now(), "channel_dead",
                                domain + " silent through ttl=" + std::to_string(ttl));
          }
        }
        if (consecutive_timeouts >= options_.timeout_run_stop) {
          trace.terminating_ttl = ttl - consecutive_timeouts + 1;
          trace.terminating_response = ProbeResponse::kTimeout;
          return trace;
        }
        break;
      case ProbeResponse::kIcmpTtlExceeded:
        consecutive_timeouts = 0;
        break;
      case ProbeResponse::kEndpointData:
        trace.terminating_ttl = ttl;
        trace.terminating_response = ProbeResponse::kEndpointData;
        trace.endpoint_reached = true;
        return trace;
      case ProbeResponse::kTcpRst:
      case ProbeResponse::kTcpFin:
      case ProbeResponse::kBlockpage:
        consecutive_timeouts = 0;
        if (!obs.tcp_and_icmp) {
          // "Only a terminating response" — the sweep is done (Fig. 2 B/E).
          trace.terminating_ttl = ttl;
          trace.terminating_response = obs.response;
          return trace;
        }
        // Injected response alongside ICMP (on-path, Fig. 2 D): keep
        // probing to collect the full evidence trail.
        break;
    }
  }
  // Max TTL reached without a terminating response: treat a trailing
  // timeout run as the terminator if one exists.
  for (std::size_t i = trace.hops.size(); i-- > 0;) {
    if (trace.hops[i].response != ProbeResponse::kTimeout) {
      if (i + 1 < trace.hops.size()) {
        trace.terminating_ttl = trace.hops[i + 1].ttl;
        trace.terminating_response = ProbeResponse::kTimeout;
      }
      return trace;
    }
  }
  return trace;
}

CenTraceReport CenTrace::measure(net::Ipv4Address endpoint, const std::string& test_domain,
                                 const std::string& control_domain) {
  CenTraceReport report;
  report.test_domain = test_domain;
  report.control_domain = control_domain;
  report.endpoint = endpoint;
  report.protocol = options_.protocol;

  obs::Observer* o = network_.observer();
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network_.clock(),
                       o != nullptr ? "centrace:" + test_domain : std::string(), "centrace");
  if (o != nullptr) o->tools().trace_measurements->inc();

  loss_recovered_probes_ = 0;
  icmp_seen_ = false;
  dead_channel_sweeps_ = 0;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    report.control_traces.push_back(sweep(endpoint, control_domain));
  }
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    report.test_traces.push_back(sweep(endpoint, test_domain));
  }
  aggregate(report);
  score_confidence(report);
  assess_degradation(report);
  if (o != nullptr) {
    if (report.blocked) o->tools().trace_blocked->inc();
    // Milli-units keep the histogram integral (determinism contract).
    o->tools().trace_confidence->observe(
        static_cast<std::uint64_t>(report.confidence.overall * 1000.0 + 0.5));
  }
  return report;
}

void CenTrace::assess_degradation(CenTraceReport& report) const {
  DegradationInfo& d = report.degradation;

  // Channel health: how often control-sweep hops that *could* have
  // answered with an ICMP quote actually did. Terminating data/injection
  // responses are neither answers nor timeouts.
  std::uint64_t answers = 0;
  std::uint64_t timeouts = 0;
  for (const SingleTrace& t : report.control_traces) {
    for (const HopObservation& h : t.hops) {
      if (h.response == ProbeResponse::kIcmpTtlExceeded) {
        ++answers;
      } else if (h.response == ProbeResponse::kTimeout) {
        ++timeouts;
      }
    }
  }
  d.icmp_answer_rate = (answers + timeouts) == 0
                           ? 1.0
                           : static_cast<double>(answers) /
                                 static_cast<double>(answers + timeouts);
  d.dead_channel_sweeps = dead_channel_sweeps_;
  d.vantage_count = 1;

  if (!report.blocked) {
    d.mode = DegradationMode::kFull;
    return;
  }
  const bool localized = report.blocking_hop_ip.has_value() &&
                         report.location != BlockingLocation::kNoIcmp;
  if (!localized) {
    // Escalation candidate: measure_with_degradation may upgrade this to
    // kTomography when the solver produces a candidate link set.
    d.mode = DegradationMode::kUnlocalized;
    return;
  }
  // Hop localised — but flag starvation when the quotes it rests on were
  // visibly rationed (rate-limit signature, a mostly-silent control path,
  // or sweeps the early-abort heuristic declared dead).
  const bool starved = report.confidence.icmp_rate_limited ||
                       d.icmp_answer_rate < 0.5 || d.dead_channel_sweeps > 0;
  d.mode = starved ? DegradationMode::kIcmpDegraded : DegradationMode::kFull;
}

void CenTrace::score_confidence(CenTraceReport& report) const {
  TraceConfidence& c = report.confidence;
  c.loss_recovered_probes = loss_recovered_probes_;

  // ---- Control-path stability: per-hop agreement across control sweeps.
  // A hop counts as stable if the sweeps that probed it agree — either on
  // one router IP, or on consistent silence (a genuinely quiet router is
  // not evidence of unreliability; *mixed* silence is).
  const std::size_t max_hops = report.control_path.size();
  c.hop_confidence.assign(max_hops, 1.0);
  double stability_sum = 0.0;
  int stability_hops = 0;
  for (std::size_t h = 0; h < max_hops; ++h) {
    std::map<std::uint32_t, int> votes;
    int timeouts = 0;
    for (const SingleTrace& t : report.control_traces) {
      if (h >= t.hops.size()) continue;
      const HopObservation& obs = t.hops[h];
      if (obs.icmp_router) {
        ++votes[obs.icmp_router->value()];
      } else if (obs.response == ProbeResponse::kTimeout) {
        ++timeouts;
      }
      // Endpoint-data / injected terminators are not router evidence.
    }
    int answered = 0, best_ip = 0;
    for (const auto& [ip, n] : votes) {
      answered += n;
      best_ip = std::max(best_ip, n);
    }
    const int observed = answered + timeouts;
    if (observed == 0) continue;  // hop beyond every sweep's reach
    const double share =
        static_cast<double>(std::max(best_ip, timeouts)) / observed;
    c.hop_confidence[h] = share;
    stability_sum += share;
    ++stability_hops;
    if (votes.size() >= 2) c.path_churn = true;
    // Same single router both answering and timing out at one hop: the
    // router exists and responds, so the gaps are rate limiting or loss.
    if (votes.size() == 1 && timeouts > 0 && answered > 0) {
      c.icmp_rate_limited = true;
    }
  }
  c.control_path_stability =
      stability_hops > 0 ? stability_sum / stability_hops : 1.0;

  // ---- Test-sweep agreement on the verdict.
  std::vector<ProbeResponse> responses;
  for (const SingleTrace& t : report.test_traces) {
    responses.push_back(t.terminating_response);
  }
  if (auto maj = majority(responses)) {
    int agree = 0;
    std::vector<int> ttls;
    for (const SingleTrace& t : report.test_traces) {
      if (t.terminating_response != *maj) continue;
      ++agree;
      if (t.terminating_ttl > 0) ttls.push_back(t.terminating_ttl);
    }
    c.response_agreement = static_cast<double>(agree) / responses.size();
    if (!ttls.empty()) {
      auto maj_ttl = majority(ttls);
      int ttl_agree = 0;
      for (int ttl : ttls) {
        if (maj_ttl && ttl == *maj_ttl) ++ttl_agree;
      }
      c.ttl_agreement = static_cast<double>(ttl_agree) / ttls.size();
    }
  }

  // ---- Composite score: agreement dominates, stability and churn shade
  // it. All factors are 1.0 (and the flags false) on a clean network.
  c.overall = c.response_agreement * (0.5 + 0.5 * c.ttl_agreement) *
              (0.5 + 0.5 * c.control_path_stability);
  if (c.icmp_rate_limited) c.overall *= 0.9;
  if (c.path_churn) c.overall *= 0.9;
  c.overall = std::clamp(c.overall, 0.0, 1.0);
}

void CenTrace::aggregate(CenTraceReport& report) const {
  // ---- Control-path reconstruction (majority vote per hop). ----
  std::size_t max_hops = 0;
  for (const SingleTrace& t : report.control_traces) {
    max_hops = std::max(max_hops, t.hops.size());
  }
  report.control_path.assign(max_hops, std::nullopt);
  for (std::size_t h = 0; h < max_hops; ++h) {
    std::vector<std::uint32_t> ips;
    for (const SingleTrace& t : report.control_traces) {
      if (h < t.hops.size() && t.hops[h].icmp_router) {
        ips.push_back(t.hops[h].icmp_router->value());
      }
    }
    if (auto m = majority(ips)) report.control_path[h] = net::Ipv4Address(*m);
  }

  // Endpoint distance from control sweeps that reached it.
  {
    std::vector<int> dists;
    for (const SingleTrace& t : report.control_traces) {
      if (t.endpoint_reached) dists.push_back(t.terminating_ttl);
    }
    if (auto m = majority(dists)) report.endpoint_hop_distance = *m;
  }

  // Tracebox quote analysis: one diff per distinct responding router.
  {
    obs::Observer* o = network_.observer();
    std::map<std::uint32_t, bool> seen;
    for (const SingleTrace& t : report.control_traces) {
      for (const HopObservation& h : t.hops) {
        if (!h.icmp_router || !h.icmp_quoted) continue;
        if (seen.emplace(h.icmp_router->value(), true).second) {
          report.quote_diffs.push_back(diff_quote(h.sent, *h.icmp_quoted, *h.icmp_router));
          if (o != nullptr) {
            const QuoteDiff& d = report.quote_diffs.back();
            o->journal().record(
                network_.now(), "quote_diff",
                h.icmp_router->str() +
                    (d.tos_changed ? " tos_changed" : "") +
                    (d.ip_flags_changed ? " ip_flags_changed" : "") +
                    (d.rfc792_minimal ? " rfc792_minimal" : "") +
                    (d.full_tcp_quoted ? " full_tcp" : ""));
          }
        }
      }
    }
  }

  // ---- Test-sweep aggregation. ----
  std::vector<ProbeResponse> responses;
  for (const SingleTrace& t : report.test_traces) responses.push_back(t.terminating_response);
  std::optional<ProbeResponse> maj_resp = majority(responses);
  if (!maj_resp) return;

  if (*maj_resp == ProbeResponse::kEndpointData) {
    report.blocked = false;
    report.location = BlockingLocation::kNotBlocked;
    return;
  }

  // Majority terminating TTL among sweeps agreeing on the response type.
  std::vector<int> term_ttls;
  for (const SingleTrace& t : report.test_traces) {
    if (t.terminating_response == *maj_resp && t.terminating_ttl > 0) {
      term_ttls.push_back(t.terminating_ttl);
    }
  }
  std::optional<int> maj_ttl = majority(term_ttls);
  if (!maj_ttl) return;
  int terminating_ttl = *maj_ttl;

  // Timeout terminations are only blocking if the Control sweep got through.
  if (*maj_resp == ProbeResponse::kTimeout &&
      (report.endpoint_hop_distance < 0 || terminating_ttl > report.endpoint_hop_distance)) {
    report.blocked = false;
    report.location = BlockingLocation::kNotBlocked;
    return;
  }

  report.blocked = true;
  switch (*maj_resp) {
    case ProbeResponse::kTimeout: report.blocking_type = BlockingType::kTimeout; break;
    case ProbeResponse::kTcpRst: report.blocking_type = BlockingType::kRst; break;
    case ProbeResponse::kTcpFin: report.blocking_type = BlockingType::kFin; break;
    case ProbeResponse::kBlockpage: report.blocking_type = BlockingType::kHttpBlockpage; break;
    default: break;
  }

  // Representative injected packet + blockpage vendor label.
  for (const SingleTrace& t : report.test_traces) {
    if (t.terminating_response != *maj_resp || t.terminating_ttl != terminating_ttl) continue;
    for (const HopObservation& h : t.hops) {
      if (h.ttl == terminating_ttl && h.tcp_packet) {
        report.injected_packet = h.tcp_packet;
        if (*maj_resp == ProbeResponse::kBlockpage) {
          if (auto resp = net::HttpResponse::view(as_text(h.tcp_packet->payload))) {
            report.blockpage_vendor = censor::match_blockpage(resp->body);
          }
        }
        break;
      }
    }
    if (report.injected_packet) break;
  }

  // On-path detection: a majority of test sweeps saw an injected response
  // *and* an ICMP Time Exceeded at the same TTL (Fig. 2 D).
  {
    std::vector<int> onpath_first_hops;
    int onpath_traces = 0;
    for (const SingleTrace& t : report.test_traces) {
      for (const HopObservation& h : t.hops) {
        if (h.tcp_and_icmp) {
          onpath_first_hops.push_back(h.ttl);
          ++onpath_traces;
          break;
        }
      }
    }
    if (onpath_traces * 2 > static_cast<int>(report.test_traces.size())) {
      report.placement = DevicePlacement::kOnPath;
      if (auto m = majority(onpath_first_hops)) terminating_ttl = *m;
    } else {
      report.placement = DevicePlacement::kInPath;
    }
  }

  // TTL-copy detection (Fig. 2 E): the injected reset arrives with TTL ≤ 1,
  // meaning the device copied the probe's remaining TTL — the reset is only
  // visible once the probe TTL is ~twice the device distance.
  int corrected_ttl = terminating_ttl;
  if (report.injected_packet && report.injected_packet->ip.ttl <= 1 &&
      (report.blocking_type == BlockingType::kRst ||
       report.blocking_type == BlockingType::kFin)) {
    report.ttl_copy_detected = true;
    corrected_ttl = (terminating_ttl + 1) / 2;
  }

  // Location classification uses the *observed* terminating hop (the paper
  // reports Past-E cases as observed, then corrects for localisation).
  if (report.endpoint_hop_distance > 0 && terminating_ttl > report.endpoint_hop_distance) {
    report.location = BlockingLocation::kPastEndpoint;
  } else if (terminating_ttl == report.endpoint_hop_distance) {
    report.location = BlockingLocation::kAtEndpoint;
  } else {
    report.location = BlockingLocation::kOnPathToEndpoint;
  }

  // "No ICMP": neither the blocking hop nor its predecessor ever answered
  // in the Control sweeps, so the device cannot be localised.
  auto control_ip_at = [&](int ttl) -> std::optional<net::Ipv4Address> {
    if (ttl < 1 || ttl > static_cast<int>(report.control_path.size())) return std::nullopt;
    return report.control_path[static_cast<std::size_t>(ttl - 1)];
  };
  bool hop_silent = !control_ip_at(corrected_ttl).has_value() &&
                    corrected_ttl != report.endpoint_hop_distance;
  bool prev_silent = corrected_ttl > 1 && !control_ip_at(corrected_ttl - 1).has_value();
  if (report.location == BlockingLocation::kOnPathToEndpoint && hop_silent && prev_silent) {
    report.location = BlockingLocation::kNoIcmp;
  }

  report.blocking_hop_ttl = corrected_ttl;
  report.blocking_hop_ip = control_ip_at(corrected_ttl);
  if (report.blocking_hop_ip) {
    report.blocking_as = network_.geodb().lookup(*report.blocking_hop_ip);
  }
}

CenTraceReport run(sim::Network& network, const TraceRunOptions& options,
                   obs::Observer* observer) {
  sim::ScopedObserver guard(network, observer);
  if (options.seed) network.reset_epoch(*options.seed);
  return measure_with_degradation(network, options.client, options.endpoint,
                                  options.test_domain, options.control_domain,
                                  options.trace, options.degradation);
}

}  // namespace cen::trace

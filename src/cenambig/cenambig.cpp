#include "cenambig/cenambig.hpp"

#include <algorithm>
#include <limits>

#include "censor/vendors.hpp"
#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "obs/observer.hpp"

namespace cen::ambig {

namespace {

constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

/// Shared HTTP scaffolding of the segmented probes. The request line and
/// the Host keyword sit in the first fragment; the classifiable domain in
/// a later one — which is the whole point.
constexpr std::string_view kRequestHead = "GET / HTTP/1.1\r\nHo";
constexpr std::string_view kHostPrefix = "GET / HTTP/1.1\r\nHost: ";
constexpr std::string_view kTrailer = "\r\n\r\n";

Bytes to_payload(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

sim::SegmentSpec seg(std::uint32_t offset, Bytes bytes, std::uint8_t ttl = 64,
                     bool bad_checksum = false) {
  sim::SegmentSpec s;
  s.offset = offset;
  s.bytes = std::move(bytes);
  s.ttl = ttl;
  s.bad_checksum = bad_checksum;
  return s;
}

}  // namespace

const std::vector<ProbeSpec>& probe_catalogue() {
  static const std::vector<ProbeSpec> kCatalogue = {
      {ProbeKind::kBaselineForbidden, "baseline-forbidden", false, false},
      {ProbeKind::kBaselineBenign, "baseline-benign", false, false},
      {ProbeKind::kSplitHost, "split-host", false, false},
      {ProbeKind::kTlsSplitSni, "tls-split-sni", true, false},
      {ProbeKind::kOutOfOrder, "out-of-order", false, false},
      {ProbeKind::kOverlapFirst, "overlap-first", false, false},
      {ProbeKind::kOverlapLast, "overlap-last", false, false},
      {ProbeKind::kInsertionTtl, "insertion-ttl", false, true},
      {ProbeKind::kInsertionChecksum, "insertion-checksum", false, false},
  };
  return kCatalogue;
}

std::string pad_domain(const std::string& domain, std::size_t target) {
  if (domain.size() >= target) return domain;
  return std::string(target - domain.size(), 'w') + domain;
}

std::vector<sim::SegmentSpec> build_segments(ProbeKind kind,
                                             const std::string& primary,
                                             const std::string& filler,
                                             int insertion_ttl) {
  // Overlap/insertion shapes need the two domains byte-interchangeable.
  const std::size_t width = std::max(primary.size(), filler.size());
  const std::string wide_primary = pad_domain(primary, width);
  const std::string wide_filler = pad_domain(filler, width);

  std::vector<sim::SegmentSpec> out;
  switch (kind) {
    case ProbeKind::kBaselineForbidden:
    case ProbeKind::kBaselineBenign: {
      out.push_back(seg(0, net::HttpRequest::get(primary).serialize_bytes()));
      break;
    }
    case ProbeKind::kSplitHost: {
      // "GET / HTTP/1.1\r\nHo" | "st: <domain>\r\n\r\n" — neither fragment
      // classifies alone; only a reassembling device sees the hostname.
      std::string tail = "st: " + primary + std::string(kTrailer);
      out.push_back(seg(0, to_payload(kRequestHead)));
      out.push_back(
          seg(static_cast<std::uint32_t>(kRequestHead.size()), to_payload(tail)));
      break;
    }
    case ProbeKind::kTlsSplitSni: {
      // One ClientHello record cut in the middle: the first fragment is an
      // incomplete TLS record (never classified alone), the SNI bytes are
      // divided across the cut.
      Bytes hello = net::ClientHello::make(primary).serialize();
      std::size_t cut = hello.size() / 2;
      out.push_back(seg(0, Bytes(hello.begin(), hello.begin() + cut)));
      out.push_back(seg(static_cast<std::uint32_t>(cut),
                        Bytes(hello.begin() + cut, hello.end())));
      break;
    }
    case ProbeKind::kOutOfOrder: {
      // A = request line, B = Host header (no terminator), C = blank line;
      // sent B, A, C. A buffering device reorders and classifies; a device
      // that only accepts in-order data at the window edge sees B+C, which
      // never parses as a request.
      std::string a(kHostPrefix.substr(0, 16));  // "GET / HTTP/1.1\r\n"
      std::string b = "Host: " + primary;
      std::uint32_t off_b = static_cast<std::uint32_t>(a.size());
      std::uint32_t off_c = off_b + static_cast<std::uint32_t>(b.size());
      out.push_back(seg(off_b, to_payload(b)));
      out.push_back(seg(0, to_payload(a)));
      out.push_back(seg(off_c, to_payload(kTrailer)));
      break;
    }
    case ProbeKind::kOverlapFirst:
    case ProbeKind::kOverlapLast: {
      // A carries one domain, B overwrites exactly the domain bytes with
      // the other, C concludes. First-wins devices classify A's domain,
      // last-wins devices B's. The canonical endpoint stack is first-wins,
      // so A's domain is what the server answers for.
      const std::string& first =
          kind == ProbeKind::kOverlapFirst ? wide_primary : wide_filler;
      const std::string& second =
          kind == ProbeKind::kOverlapFirst ? wide_filler : wide_primary;
      std::string a = std::string(kHostPrefix) + first;
      std::uint32_t host_off = static_cast<std::uint32_t>(kHostPrefix.size());
      std::uint32_t end_off = static_cast<std::uint32_t>(a.size());
      out.push_back(seg(0, to_payload(a)));
      out.push_back(seg(host_off, to_payload(second)));
      out.push_back(seg(end_off, to_payload(kTrailer)));
      break;
    }
    case ProbeKind::kInsertionTtl:
    case ProbeKind::kInsertionChecksum: {
      // A opens the message, X completes it with the primary domain but
      // can never be accepted by the endpoint stack (TTL death / corrupt
      // checksum), B completes it with the filler domain. A middlebox that
      // honours X classifies the primary; the endpoint serves the filler.
      std::string x = "st: " + wide_primary + std::string(kTrailer);
      std::string b = "st: " + wide_filler + std::string(kTrailer);
      std::uint32_t tail_off = static_cast<std::uint32_t>(kRequestHead.size());
      out.push_back(seg(0, to_payload(kRequestHead)));
      if (kind == ProbeKind::kInsertionTtl) {
        std::uint8_t ttl = static_cast<std::uint8_t>(
            std::clamp(insertion_ttl, 1, 255));
        out.push_back(seg(tail_off, to_payload(x), ttl));
      } else {
        out.push_back(seg(tail_off, to_payload(x), 64, /*bad_checksum=*/true));
      }
      out.push_back(seg(tail_off, to_payload(b)));
      break;
    }
  }
  return out;
}

bool outcome_blocked(ProbeOutcome o) { return o != ProbeOutcome::kData; }

std::uint64_t AmbigOptions::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(repetitions));
  fp.mix(static_cast<std::uint64_t>(retries));
  fp.mix(static_cast<std::uint64_t>(wait_after_blocked));
  fp.mix(static_cast<std::uint64_t>(wait_after_ok));
  fp.mix(static_cast<std::uint64_t>(retry_backoff));
  fp.mix(static_cast<std::uint64_t>(max_distance_ttl));
  fp.mix(order_salt);
  return fp.digest();
}

std::vector<double> AmbigReport::discrepancy_vector() const {
  std::vector<double> out;
  out.reserve(probes.size());
  for (const AmbigProbeResult& p : probes) {
    if (!p.testable) {
      out.push_back(kMissing);
    } else {
      out.push_back(p.discrepant ? 1.0 : 0.0);
    }
  }
  return out;
}

CenAmbig::CenAmbig(sim::Network& network, sim::NodeId client, AmbigOptions options)
    : network_(network), client_(client), options_(options) {}

ProbeOutcome CenAmbig::issue(net::Ipv4Address endpoint, bool https,
                             const std::vector<sim::SegmentSpec>& segments) {
  const std::uint16_t port = https ? 443 : 80;
  SimTime backoff = options_.retry_backoff;
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    if (attempt > 0 && backoff > 0) {
      network_.clock().advance(backoff);
      backoff *= 2;
    }
    sim::Connection conn = network_.open_connection(client_, endpoint, port);
    if (conn.connect() != sim::ConnectResult::kEstablished) continue;
    std::vector<sim::Event> events = conn.send_segments(segments);
    if (events.empty()) continue;

    // Rank exactly as CenFuzz: an injected blockpage or reset outranks
    // genuine-looking data that may also arrive (on-path races).
    ProbeOutcome result = ProbeOutcome::kData;
    int best_rank = -1;
    auto rank = [](ProbeOutcome o) {
      switch (o) {
        case ProbeOutcome::kBlockpage: return 4;
        case ProbeOutcome::kRst: return 3;
        case ProbeOutcome::kFin: return 2;
        case ProbeOutcome::kData: return 1;
        case ProbeOutcome::kTimeout: return 0;
      }
      return 0;
    };
    bool any_tcp = false;
    for (const sim::Event& ev : events) {
      const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
      if (tcp == nullptr) continue;
      any_tcp = true;
      ProbeOutcome o = ProbeOutcome::kData;
      if (tcp->packet.tcp.has(net::TcpFlags::kRst)) {
        o = ProbeOutcome::kRst;
      } else if (tcp->packet.tcp.has(net::TcpFlags::kFin)) {
        o = ProbeOutcome::kFin;
      } else if (!tcp->packet.payload.empty()) {
        if (auto resp = net::HttpResponse::view(as_text(tcp->packet.payload));
            resp && censor::match_blockpage(resp->body)) {
          o = ProbeOutcome::kBlockpage;
        }
      }
      if (rank(o) > best_rank) {
        best_rank = rank(o);
        result = o;
      }
    }
    // ICMP-only events (an insertion segment expiring en route) are not a
    // connection outcome; keep retrying until something TCP arrives.
    if (!any_tcp) continue;
    return result;
  }
  return ProbeOutcome::kTimeout;
}

int CenAmbig::measure_distance(net::Ipv4Address endpoint,
                               const std::string& control_domain) {
  const Bytes payload = net::HttpRequest::get(control_domain).serialize_bytes();
  for (int ttl = 1; ttl <= options_.max_distance_ttl; ++ttl) {
    sim::Connection conn = network_.open_connection(client_, endpoint, 80);
    if (conn.connect() != sim::ConnectResult::kEstablished) continue;
    std::vector<sim::Event> events = conn.send(payload, static_cast<std::uint8_t>(ttl));
    network_.clock().advance(options_.wait_after_ok);
    for (const sim::Event& ev : events) {
      const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
      if (tcp != nullptr && !tcp->packet.payload.empty() &&
          !tcp->packet.tcp.has(net::TcpFlags::kRst)) {
        return ttl;
      }
    }
  }
  return -1;
}

AmbigReport CenAmbig::run(net::Ipv4Address endpoint, const std::string& test_domain,
                          const std::string& control_domain) {
  AmbigReport report;
  report.endpoint = endpoint;
  report.test_domain = test_domain;
  report.control_domain = control_domain;

  obs::Observer* o = network_.observer();
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network_.clock(),
                       "cenambig:" + test_domain, "cenambig");
  if (o != nullptr) o->tools().ambig_runs->inc();

  // The control-domain mini-sweep pins the endpoint distance; insertion
  // probes stamp one hop less so the segment reaches every on-path device
  // but dies at the last router.
  report.endpoint_distance = measure_distance(endpoint, control_domain);
  if (report.endpoint_distance > 1) {
    report.insertion_ttl = report.endpoint_distance - 1;
  }

  auto pace = [&](ProbeOutcome r) {
    network_.clock().advance(outcome_blocked(r) ? options_.wait_after_blocked
                                                : options_.wait_after_ok);
    ++report.total_probes_sent;
    if (o != nullptr) o->tools().ambig_probes->inc();
  };

  const std::vector<ProbeSpec>& catalogue = probe_catalogue();
  report.probes.resize(catalogue.size());

  // Execution order is a deterministic permutation of the catalogue;
  // results land in catalogue order regardless. Fresh connections plus
  // residual-outlasting waits make the vector order-invariant, which the
  // cencheck ambig engine asserts by permuting this salt.
  std::vector<std::size_t> order(catalogue.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options_.order_salt != 0) {
    order = Rng(options_.order_salt).permutation(catalogue.size());
  }

  const int reps = std::max(1, options_.repetitions);
  for (std::size_t idx : order) {
    const ProbeSpec& spec = catalogue[idx];
    AmbigProbeResult& pr = report.probes[idx];
    pr.name = std::string(spec.name);
    pr.repetitions = reps;

    if (spec.needs_insertion_ttl && report.insertion_ttl < 1) {
      pr.testable = false;
      continue;
    }

    // The control variant swaps the forbidden domain for a second benign
    // name of identical shape; kBaselineBenign is all-benign by design.
    const std::string& test_primary =
        spec.kind == ProbeKind::kBaselineBenign ? control_domain : test_domain;
    std::vector<sim::SegmentSpec> test_segments = build_segments(
        spec.kind, test_primary, control_domain, report.insertion_ttl);
    std::vector<sim::SegmentSpec> control_segments = build_segments(
        spec.kind, control_domain, control_domain, report.insertion_ttl);

    for (int rep = 0; rep < reps; ++rep) {
      ProbeOutcome test_r = issue(endpoint, spec.https, test_segments);
      pace(test_r);
      ProbeOutcome control_r = issue(endpoint, spec.https, control_segments);
      pace(control_r);
      if (rep == 0) {
        pr.test_outcome = test_r;
        pr.control_outcome = control_r;
      }
      if (outcome_blocked(test_r)) ++pr.test_blocked_votes;
      if (!outcome_blocked(control_r)) ++pr.control_clean_votes;
    }

    pr.testable = 2 * pr.control_clean_votes > reps;
    pr.discrepant = pr.testable && 2 * pr.test_blocked_votes > reps;
    if (spec.kind == ProbeKind::kBaselineForbidden) {
      report.baseline_blocked = pr.discrepant;
    }
    if (o != nullptr) {
      if (pr.discrepant) o->tools().ambig_discrepant->inc();
      o->journal().record(network_.now(), "ambig",
                          pr.name + " -> " +
                              (pr.testable
                                   ? std::string(pr.discrepant ? "discrepant" : "clean")
                                   : std::string("untestable")));
    }
  }
  return report;
}

AmbigReport run(sim::Network& network, const AmbigRunOptions& options,
                obs::Observer* observer) {
  sim::ScopedObserver guard(network, observer);
  if (options.seed) network.reset_epoch(*options.seed);
  CenAmbig tool(network, options.client, options.ambig);
  return tool.run(options.endpoint, options.test_domain, options.control_domain);
}

}  // namespace cen::ambig

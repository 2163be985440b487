#include "cenfuzz/cenfuzz.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "censor/vendors.hpp"
#include "core/fingerprint.hpp"
#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "obs/observer.hpp"

namespace cen::fuzz {

std::uint64_t CenFuzzOptions::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(retries));
  fp.mix(static_cast<std::uint64_t>(wait_after_blocked));
  fp.mix(static_cast<std::uint64_t>(wait_after_ok));
  fp.mix(run_http);
  fp.mix(run_tls);
  fp.mix(static_cast<std::uint64_t>(baseline_attempts));
  return fp.digest();
}

bool request_blocked(RequestResult r) {
  return r == RequestResult::kDropTimeout || r == RequestResult::kRst ||
         r == RequestResult::kFin || r == RequestResult::kBlockpage;
}

CenFuzz::CenFuzz(sim::Network& network, sim::NodeId client, CenFuzzOptions options)
    : network_(network), client_(client), options_(options) {}

namespace {

/// What a Test request fetched, as the circumvention check reads it.
std::string describe_reply(BytesView payload, const std::optional<net::HttpResponseView>& http) {
  if (http) return "HTTP:" + std::to_string(http->status) + ":" + std::string(http->body);
  if (payload.empty()) return {};
  if (const auto sh = net::ServerHello::view(payload)) {
    return std::string("TLSCERT:").append(sh->certificate_domain);
  }
  if (net::TlsAlert::parse(payload)) return "TLSALERT";
  return {};
}

/// Registrable part of a domain (its last two labels): content served for
/// a sibling subdomain still counts as the intended resource (§6.3's
/// wiki.dailymotion.com circumvention example).
std::string_view registrable_part(std::string_view domain) {
  const std::size_t last = domain.rfind('.');
  if (last == std::string_view::npos || last == 0) return domain;
  const std::size_t prev = domain.rfind('.', last - 1);
  return prev == std::string_view::npos ? domain : domain.substr(prev + 1);
}

/// `name` is a subdomain of `parent` ("a.b.c" of "b.c").
bool is_subdomain_of(std::string_view name, std::string_view parent) {
  return name.size() > parent.size() && name[name.size() - parent.size() - 1] == '.' &&
         ends_with(name, parent);
}

/// Did the successful Test request fetch the intended resource? `body` is
/// its issue() description.
bool fetched_legit_content(std::string_view body, std::string_view test_domain,
                           std::string_view registrable, bool https) {
  if (https) {
    if (!starts_with(body, "TLSCERT:")) return false;
    const std::string_view cert = body.substr(8);
    return cert == registrable || is_subdomain_of(cert, registrable) ||
           is_subdomain_of(registrable, cert) || cert == test_domain;
  }
  if (!starts_with(body, "HTTP:200:")) return false;
  return body.find("legitimate content for") != std::string_view::npos &&
         body.find(registrable) != std::string_view::npos;
}

/// One protocol's permutation table: the caller's shared one, or one
/// built into `own` for this run.
const std::vector<FuzzProbe>& probe_table(const ProbeSet* set, const std::string& domain,
                                          bool https, std::vector<FuzzProbe>& own) {
  if (set != nullptr) return https ? set->tls : set->http;
  own = https ? tls_probes(domain) : http_probes(domain);
  return own;
}

}  // namespace

RequestResult CenFuzz::issue(net::Ipv4Address endpoint, const FuzzProbe& probe,
                             std::string* response_body) {
  const std::uint16_t port = probe.https ? 443 : 80;
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    sim::Connection conn = network_.open_connection(client_, endpoint, port);
    if (conn.connect() != sim::ConnectResult::kEstablished) continue;
    conn.send_into(probe.payload, 64, events_);
    if (events_.empty()) continue;

    RequestResult result = RequestResult::kOk;
    int best_rank = -1;
    auto rank = [](RequestResult r) {
      switch (r) {
        case RequestResult::kBlockpage: return 4;
        case RequestResult::kRst: return 3;
        case RequestResult::kFin: return 2;
        case RequestResult::kOk: return 1;
        case RequestResult::kDropTimeout: return 0;
      }
      return 0;
    };
    for (const sim::Event& ev : events_) {
      const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
      if (tcp == nullptr) continue;
      const BytesView payload = tcp->packet.payload;
      RequestResult r = RequestResult::kOk;
      std::optional<net::HttpResponseView> http;
      if (tcp->packet.tcp.has(net::TcpFlags::kRst)) {
        r = RequestResult::kRst;
      } else if (tcp->packet.tcp.has(net::TcpFlags::kFin)) {
        r = RequestResult::kFin;
      } else if (!payload.empty()) {
        http = net::HttpResponse::view(as_text(payload));
        if (http && censor::match_blockpage(http->body)) r = RequestResult::kBlockpage;
      }
      if (rank(r) > best_rank) {
        best_rank = rank(r);
        result = r;
        if (response_body != nullptr && r == RequestResult::kOk) {
          *response_body = describe_reply(payload, http);
        }
      }
    }
    return result;
  }
  return RequestResult::kDropTimeout;
}

CenFuzzReport CenFuzz::run(net::Ipv4Address endpoint, const std::string& test_domain,
                           const std::string& control_domain, const ProbeSet* test_probes,
                           const ProbeSet* control_probes) {
  if ((test_probes != nullptr && test_probes->domain != test_domain) ||
      (control_probes != nullptr && control_probes->domain != control_domain)) {
    throw std::invalid_argument("CenFuzz::run: probe table built for another domain");
  }
  const std::string_view registrable = registrable_part(test_domain);
  CenFuzzReport report;
  report.endpoint = endpoint;
  report.test_domain = test_domain;
  report.control_domain = control_domain;

  obs::Observer* o = network_.observer();
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network_.clock(),
                       "cenfuzz:" + test_domain, "cenfuzz");

  auto pace = [&](RequestResult r) {
    network_.clock().advance(request_blocked(r) ? options_.wait_after_blocked
                                                : options_.wait_after_ok);
    ++report.total_requests;
    if (o != nullptr) o->tools().fuzz_requests->inc();
  };

  // Per-measurement bookkeeping: outcome counters plus a journal line
  // recording the strategy's verdict.
  auto observe_measurement = [&](const FuzzMeasurement& m) {
    if (o == nullptr) return;
    switch (m.outcome) {
      case FuzzOutcome::kSuccessful: o->tools().fuzz_successful->inc(); break;
      case FuzzOutcome::kNotSuccessful: o->tools().fuzz_not_successful->inc(); break;
      case FuzzOutcome::kUntestable: o->tools().fuzz_untestable->inc(); break;
    }
    if (m.baseline_failed) o->tools().fuzz_baseline_failed->inc();
    o->journal().record(network_.now(), "fuzz",
                        m.strategy + "/" + m.permutation + " " +
                            (m.https ? "tls" : "http") + " -> " +
                            std::string(fuzz_outcome_name(m.outcome)));
  };

  auto run_protocol = [&](bool https) {
    FuzzProbe normal_test =
        https ? normal_tls_probe(test_domain) : normal_http_probe(test_domain);
    FuzzProbe normal_control =
        https ? normal_tls_probe(control_domain) : normal_http_probe(control_domain);

    // Majority-voted baseline: one dropped request on a lossy network must
    // not write off the whole protocol. One round (the default) reduces to
    // the single Normal Test / Normal Control pair.
    const int rounds = std::max(1, options_.baseline_attempts);
    RequestResult normal_test_result = RequestResult::kOk;
    RequestResult normal_control_result = RequestResult::kOk;
    int blocked_votes = 0;
    for (int round = 0; round < rounds; ++round) {
      RequestResult test_r = issue(endpoint, normal_test);
      pace(test_r);
      RequestResult control_r = issue(endpoint, normal_control);
      pace(control_r);
      if (round == 0) {
        normal_test_result = test_r;
        normal_control_result = control_r;
      }
      if (request_blocked(test_r) && !request_blocked(control_r)) ++blocked_votes;
    }
    bool baseline_blocked = 2 * blocked_votes > rounds;
    (https ? report.tls_baseline_blocked : report.http_baseline_blocked) = baseline_blocked;

    // Record the Normal baseline as a pseudo-strategy (it appears in
    // Fig. 5 / Fig. 9 as "Normal").
    FuzzMeasurement normal_m;
    normal_m.strategy = "Normal";
    normal_m.permutation = https ? "ClientHello" : "GET";
    normal_m.https = https;
    normal_m.test_result = normal_test_result;
    normal_m.control_result = normal_control_result;
    normal_m.outcome =
        baseline_blocked ? FuzzOutcome::kNotSuccessful : FuzzOutcome::kUntestable;
    observe_measurement(normal_m);
    report.measurements.push_back(normal_m);

    if (!baseline_blocked) return;  // nothing to fuzz on this protocol

    std::vector<FuzzProbe> own_test;
    std::vector<FuzzProbe> own_control;
    const std::vector<FuzzProbe>& test_set = probe_table(test_probes, test_domain, https, own_test);
    const std::vector<FuzzProbe>& control_set =
        probe_table(control_probes, control_domain, https, own_control);

    for (std::size_t i = 0; i < test_set.size(); ++i) {
      FuzzMeasurement m;
      m.strategy = test_set[i].strategy;
      m.permutation = test_set[i].permutation;
      m.https = https;

      std::string test_body;
      m.test_result = issue(endpoint, test_set[i], &test_body);
      pace(m.test_result);
      m.control_result = issue(endpoint, control_set[i]);
      pace(m.control_result);

      if (request_blocked(m.control_result)) {
        // Per-strategy baseline failure: skip and record, never abort.
        m.outcome = FuzzOutcome::kUntestable;
        m.baseline_failed = true;
        ++report.skipped_strategies;
        if (o != nullptr) o->tools().fuzz_skipped->inc();
      } else if (!request_blocked(m.test_result)) {
        m.outcome = FuzzOutcome::kSuccessful;
        m.circumvented = fetched_legit_content(test_body, test_domain, registrable, https);
      } else {
        m.outcome = FuzzOutcome::kNotSuccessful;
      }
      observe_measurement(m);
      report.measurements.push_back(std::move(m));
    }
  };

  if (options_.run_http) run_protocol(false);
  if (options_.run_tls) run_protocol(true);
  return report;
}

CenFuzzReport run(sim::Network& network, const FuzzRunOptions& options,
                  obs::Observer* observer) {
  sim::ScopedObserver guard(network, observer);
  if (options.seed) network.reset_epoch(*options.seed);
  CenFuzz tool(network, options.client, options.fuzz);
  return tool.run(options.endpoint, options.test_domain, options.control_domain,
                  options.test_probes.get(), options.control_probes.get());
}

}  // namespace cen::fuzz

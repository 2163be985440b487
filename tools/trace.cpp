// cen trace — run censorship traceroutes against a built-in scenario.
//
// Measures every (endpoint, test domain) pair unless --endpoint / --domain
// pick one; --json prints JSONL, --pcap writes the client-side capture.
//
// Every task is seeded from its (endpoint, domain, protocol) identity, so
// the reports and the sinks are byte-identical for every --threads value,
// under a non-inert fault plan too. --pcap runs the tasks inline
// (threads 0), because worker replicas never carry a capture sink.
//
// --tomography enables the degradation ladder: blocked measurements that
// cannot be hop-localized (e.g. every nearby router blackholes ICMP)
// escalate to multi-vantage boolean tomography, reporting a candidate
// blocking-link set instead of silently failing. When any measurement
// ends degraded (tomography or unlocalized) the exit code is 4.
#include "centrace/degrade.hpp"
#include "cli.hpp"
#include "net/pcap.hpp"
#include "scenario/silent.hpp"

using namespace cen;
using namespace cli;

namespace {

void print_text(const trace::CenTraceReport& r) {
  std::printf("%-28s %-5s %s", r.test_domain.c_str(),
              std::string(trace::probe_protocol_name(r.protocol)).c_str(),
              r.blocked ? "BLOCKED" : "ok");
  if (r.blocked) {
    std::printf(" [%s, %s, hop %d",
                std::string(trace::blocking_type_name(r.blocking_type)).c_str(),
                std::string(trace::device_placement_name(r.placement)).c_str(),
                r.blocking_hop_ttl);
    if (r.blocking_hop_ip) std::printf(" @ %s", r.blocking_hop_ip->str().c_str());
    if (r.blocking_as) {
      std::printf(" AS%u %s (%s)", r.blocking_as->asn, r.blocking_as->name.c_str(),
                  r.blocking_as->country.c_str());
    }
    std::printf("]");
    if (r.ttl_copy_detected) std::printf(" [ttl-copy]");
    if (r.degradation.mode != trace::DegradationMode::kFull) {
      std::printf(" <%s", std::string(trace::degradation_mode_name(r.degradation.mode)).c_str());
      if (!r.degradation.candidate_links.empty()) {
        const trace::BlamedLink& top = r.degradation.candidate_links.front();
        std::printf(" %s-%s p=%.2f", top.ip_a.str().c_str(), top.ip_b.str().c_str(),
                    top.confidence);
      }
      std::printf(">");
    }
  }
  std::printf("\n");
}

}  // namespace

int cli::run_trace(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string pcap = args.get("pcap");
  scenario::CountryScenario s = make_site(ctx);

  // The tracer's options where a campaign spec holds them, so --retries
  // and --backoff reach them through their trace.* rows.
  campaign::CampaignSpec spec;
  spec.trace.repetitions = args.value("reps", 11);
  spec.trace.protocol = parse_protocol(args.get("protocol"));
  args.apply(spec);
  const trace::CenTraceOptions& opts = spec.trace;

  net::PcapWriter capture;
  if (!pcap.empty()) s.network->set_capture(&capture);

  std::vector<std::string> domains = opts.protocol == trace::ProbeProtocol::kHttps
                                         ? s.https_test_domains
                                         : s.http_test_domains;
  if (args.has("domain")) domains = {args.get("domain")};
  std::vector<net::Ipv4Address> endpoints = s.remote_endpoints;
  if (args.has("endpoint")) endpoints = {select_endpoint(ctx, s)};

  trace::DegradationPlan plan;
  plan.tomography = args.has("tomography");
  plan.vantages = scenario::tomography_vantages(s, args.value("vantages", 2));

  const std::vector<trace::CenTraceReport> reports = scenario::run_trace_fanout(
      *s.network, s.remote_client, endpoints, domains, s.control_domain, opts,
      pcap.empty() ? ctx.common.threads : 0, ctx.observer,
      plan.tomography ? &plan : nullptr);
  for (const trace::CenTraceReport& r : reports) {
    if (ctx.common.json) {
      std::printf("%s\n", report::to_json(r, args.has("sweeps")).c_str());
    } else {
      print_text(r);
    }
  }

  if (!pcap.empty()) {
    s.network->set_capture(nullptr);
    if (!capture.write_file(pcap)) {
      std::fprintf(stderr, "failed to write %s\n", pcap.c_str());
      return kExitRuntime;
    }
    std::fprintf(stderr, "wrote %zu packets to %s\n", capture.size(), pcap.c_str());
  }
  for (const trace::CenTraceReport& r : reports) {
    if (plan.tomography && r.blocked &&
        (r.degradation.mode == trace::DegradationMode::kTomography ||
         r.degradation.mode == trace::DegradationMode::kUnlocalized)) {
      return kExitDegraded;
    }
  }
  return kExitOk;
}

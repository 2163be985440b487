// The experiments that build their own networks or use no network: Figure
// 2's operation modes, Table 2 and Figures 7-8, §6.3's circumvention, the
// Geneva and Disguiser baselines, the DNS extension, §4.1's path variance,
// the two ablations and the fault matrix. None of them reads the memo.
#include <algorithm>
#include <set>

#include "bench_common.hpp"
#include "censor/vendors.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenfuzz/strategies.hpp"
#include "centrace/centrace.hpp"
#include "core/strings.hpp"
#include "evolve/genetic.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "scenario/variance.hpp"

namespace bench {

namespace {

constexpr net::Ipv4Address kServer(10, 0, 9, 1);

/// The lab line: client (10.0.0.1) - r1..rN (10.0.i.1) - server, with
/// 10.0.0.0/16 in one AS. `ecmp` gives hop 2 an equal-cost twin.
struct Line {
  sim::NodeId client, server;
  std::vector<sim::NodeId> routers;
  std::unique_ptr<sim::Network> net;
};

Line line_network(int routers, net::Ipv4Address server_ip = kServer, std::uint64_t seed = 1,
                  bool ecmp = false) {
  sim::CompactTopologyBuilder topo;
  Line line;
  line.client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
  sim::NodeId prev = line.client;
  for (int i = 1; i <= routers; ++i) {
    line.routers.push_back(
        topo.add_node("r" + std::to_string(i), net::Ipv4Address(10, 0, std::uint8_t(i), 1)));
    topo.add_link(prev, line.routers.back());
    prev = line.routers.back();
  }
  if (ecmp) {
    sim::NodeId twin = topo.add_node("r2b", net::Ipv4Address(10, 0, 2, 2));
    topo.add_link(line.routers[0], twin);
    topo.add_link(twin, line.routers[2]);
  }
  line.server = topo.add_node("server", server_ip);
  topo.add_link(prev, line.server);
  geo::IpMetadataDb db;
  db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "NATIONAL-ISP", "XX"});
  line.net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db), seed);
  return line;
}

/// A line whose server hosts www.example.org, with a device at hop
/// `device_hop` (0: none) blocking blocked.example over HTTP and SNI. With
/// `vhosts` the server also hosts blocked.example and answers any subdomain
/// or unknown host.
Line censored_line(int routers, int device_hop, censor::DeviceConfig cfg, bool vhosts = false,
                   std::uint64_t seed = 1, bool ecmp = false) {
  Line line = line_network(routers, kServer, seed, ecmp);
  sim::EndpointProfile profile;
  profile.hosted_domains = {"www.example.org"};
  if (vhosts) profile.hosted_domains = {"blocked.example", "www.example.org"};
  profile.serves_subdomains = profile.default_vhost_for_unknown = vhosts;
  line.net->add_endpoint(line.server, profile);
  cfg.http_rules.add("blocked.example");
  cfg.sni_rules.add("blocked.example");
  if (device_hop > 0) {
    line.net->attach_device(line.routers[static_cast<std::size_t>(device_hop - 1)],
                            std::make_shared<censor::Device>(cfg));
  }
  return line;
}

trace::CenTraceReport measure_blocked(trace::CenTrace& tracer) {
  return tracer.measure(kServer, "www.blocked.example", "www.example.org");
}

void print_hops(const std::vector<trace::HopObservation>& hops) {
  for (const trace::HopObservation& h : hops) {
    std::printf("  TTL %2d -> %-7s", h.ttl, std::string(probe_response_name(h.response)).c_str());
    if (h.icmp_router) std::printf(" from %s", h.icmp_router->str().c_str());
    if (h.tcp_and_icmp) std::printf("  [injected response AND ICMP]");
    std::printf("\n");
  }
}

}  // namespace

// Figure 2: CenTrace operation under each censorship-device behaviour (A:
// control sweep, B: in-path injector, C: packet-dropper, D: on-path tap,
// E: TTL-copying injector) — the hop-by-hop observations a real run makes.
void fig2_modes(Memo&, Numbers& n) {
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  {
    Line line = censored_line(4, 0, {});
    trace::CenTrace tracer(*line.net, line.client, opts);
    trace::SingleTrace t = tracer.sweep(kServer, "www.example.org");
    std::printf("\n(A) Control Domain sweep\n");
    print_hops(t.hops);
    std::printf("  => endpoint reached at hop %d\n", t.terminating_ttl);
    n["A endpoint hop"] = t.terminating_ttl;
  }
  auto show = [&](const char* mode, censor::DeviceConfig cfg) {
    Line line = censored_line(4, 3, cfg);
    trace::CenTrace tracer(*line.net, line.client, opts);
    trace::CenTraceReport r = measure_blocked(tracer);
    std::printf("\n(%s)\n", mode);
    print_hops(r.test_traces[0].hops);
    std::printf("  => blocked=%s type=%s placement=%s hop=%d (endpoint at %d) loc=%s%s\n",
                r.blocked ? "yes" : "no",
                std::string(blocking_type_name(r.blocking_type)).c_str(),
                std::string(device_placement_name(r.placement)).c_str(),
                r.blocking_hop_ttl, r.endpoint_hop_distance,
                std::string(blocking_location_name(r.location)).c_str(),
                r.ttl_copy_detected ? " [TTL-copy corrected]" : "");
    std::string key(1, mode[0]);
    n[key + " hop"] = r.blocked ? r.blocking_hop_ttl : 0;
    n[key + " on-path"] = r.placement == trace::DevicePlacement::kOnPath;
    n[key + " TTL-copy"] = r.ttl_copy_detected;
  };
  censor::DeviceConfig cfg;
  cfg.id = "inpath-rst";
  cfg.action = censor::BlockAction::kRstInject;
  show("B: in-path injector — terminating RST, no ICMP at the device hop", cfg);
  cfg.id = "dropper";
  cfg.action = censor::BlockAction::kDrop;
  show("C: packet drops — trailing timeout run marks the device hop", cfg);
  cfg.id = "tap";
  cfg.on_path = true;
  cfg.action = censor::BlockAction::kRstInject;
  show("D: on-path tap — injected RST alongside ICMP from the same hop", cfg);
  cfg.id = "ttl-copy";
  cfg.on_path = false;
  cfg.injection.copy_ttl_from_trigger = true;
  show("E: TTL-copying injector — reset visible only at ~2x device distance", cfg);
}

// Table 2: the CenFuzz strategy catalogue with permutation counts, plus a
// concrete example permutation per strategy.
void table2_strategies(Memo&, Numbers& n) {
  std::printf("%-10s %-26s %-38s %4s\n", "Category", "Strategy", "Example permutation",
              "NP");
  rule();
  int http_total = 0, tls_total = 0;
  for (const fuzz::StrategyInfo& info : fuzz::strategy_catalogue()) {
    std::vector<fuzz::FuzzProbe> probes = fuzz::probes_for_strategy(info.name, "www.example.com");
    std::string example = probes.size() > 1 ? probes[1].permutation : probes[0].permutation;
    std::printf("%-10s %-26s %-38s %4zu\n", info.category.c_str(), info.name.c_str(),
                example.c_str(), probes.size());
    (info.https ? tls_total : http_total) += static_cast<int>(probes.size());
  }
  n["HTTP permutations"] = http_total;
  n["TLS permutations"] = tls_total;
  rule();
  std::printf("HTTP permutations per run: %d   TLS permutations per run: %d\n",
              http_total, tls_total);
  std::printf("Paper Table 2 per-strategy counts: 6/16/7/8/5/10/10/59 (Alternate),\n");
  std::printf("8/16/16 (Capitalize), 7/167/63/3 (Remove), 9 (Pad) for HTTP;\n");
  std::printf("4/4/25/3/4/10/10/9 for TLS. All reproduced exactly.\n");
}

// Figures 7 & 8 (Appendix B): the parts of an HTTP GET request and a TLS
// Client Hello that CenFuzz mutates, printed from the codecs' bytes.
void fig7_8_grammar(Memo&, Numbers& n) {
  net::HttpRequest req = net::HttpRequest::get("www.example.com");
  req.extra_headers.emplace_back("Connection", "keep-alive");
  std::string raw = req.serialize();
  std::printf("raw bytes (%zu):\n", raw.size());
  for (const std::string& line : split(raw, std::string_view("\r\n"))) {
    if (line.empty()) continue;
    std::printf("  |%s| \\r\\n\n", line.c_str());
    ++n["HTTP lines"];
  }
  std::printf("\ncomponents CenFuzz mutates:\n");
  std::printf("  Method:         %s\n", req.method.c_str());
  std::printf("  Path:           %s\n", req.path.c_str());
  std::printf("  Version:        %s\n", req.version.c_str());
  std::printf("  Host keyword:   %s\n", std::string(trim(req.host_word)).c_str());
  std::printf("  Hostname:       %s\n", req.host.c_str());
  std::printf("  Delimiters:     CRLF\n");

  header("Figure 8: parts of a TLS Client Hello");
  Bytes wire = net::ClientHello::make("www.example.com").serialize();
  std::printf("raw record (%zu bytes): %s...\n", wire.size(),
              to_hex(BytesView(wire.data(), 24)).c_str());
  net::ClientHello parsed = net::ClientHello::parse(wire);
  std::printf("  Record header:   type=22 (handshake), version=%s\n",
              net::tls_version_name(parsed.record_version).c_str());
  std::printf("  Handshake type:  1 (client_hello)\n");
  std::printf("  Client version:  %s\n", net::tls_version_name(parsed.legacy_version).c_str());
  std::printf("  Random:          32 bytes\n");
  std::printf("  Session ID:      %zu bytes\n", parsed.session_id.size());
  std::printf("  Cipher suites:   %zu offered\n", parsed.cipher_suites.size());
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("    - %s\n", net::cipher_suite_name(parsed.cipher_suites[i]).c_str());
  }
  std::printf("    - ... (%zu more)\n", parsed.cipher_suites.size() - 3);
  std::printf("  Compression:     %zu method(s)\n", parsed.compression_methods.size());
  std::printf("  Extensions:      %zu\n", parsed.extensions.size());
  for (const net::TlsExtension& ext : parsed.extensions) {
    const char* name = "unknown";
    switch (ext.type) {
      case net::TlsExtensionType::kServerName: name = "server_name (SNI)"; break;
      case net::TlsExtensionType::kSupportedVersions: name = "supported_versions"; break;
      case net::TlsExtensionType::kSupportedGroups: name = "supported_groups"; break;
      case net::TlsExtensionType::kPadding: name = "padding"; break;
    }
    std::printf("    - type=%u %-20s %zu bytes\n", ext.type, name, ext.data.size());
  }
  std::printf("  SNI value:       %s\n", parsed.sni()->c_str());
  n["SNI round-trips"] = parsed.sni() == std::optional<std::string>("www.example.com");
  std::printf("  Versions offered:");
  for (net::TlsVersion v : parsed.supported_versions()) {
    std::printf(" %s", net::tls_version_name(v).c_str());
  }
  std::printf("\n");
}

// §6.3 evasion vs circumvention: fuzz the genuine servers of censored
// domains from the in-country vantage points; which evading strategies
// also fetch legitimate content?
void circumvention(Memo&, Numbers& n) {
  std::map<std::string, std::array<int, 2>> per_strategy;  // [evasions, circumventions]
  std::map<std::string, std::array<int, 2>> per_domain;
  for (scenario::Country c : scenario::all_countries()) {
    scenario::CountryScenario s = scenario::make_country(c, scenario::Scale::kFull);
    if (s.incountry_client == sim::kInvalidNode) continue;
    fuzz::CenFuzz fuzzer(*s.network, s.incountry_client);
    std::vector<std::string> all_domains = s.http_test_domains;
    all_domains.insert(all_domains.end(), s.https_test_domains.begin(),
                       s.https_test_domains.end());
    for (std::size_t d = 0; d < all_domains.size(); ++d) {
      fuzz::CenFuzzReport report =
          fuzzer.run(s.foreign_endpoints[d], all_domains[d], s.control_domain);
      std::string domain = std::string(scenario::country_code(c)) + " " + all_domains[d];
      for (const fuzz::FuzzMeasurement& m : report.measurements) {
        if (m.outcome != fuzz::FuzzOutcome::kSuccessful) continue;
        per_strategy[m.strategy][0]++;
        per_domain[domain][0]++;
        if (m.circumvented) {
          per_strategy[m.strategy][1]++;
          per_domain[domain][1]++;
        }
      }
    }
  }

  std::printf("%-26s %9s %14s\n", "Strategy", "evasions", "circumventions");
  rule();
  for (const auto& [strategy, counts] : per_strategy) {
    std::printf("%-26s %9d %14d\n", strategy.c_str(), counts[0], counts[1]);
    n[strategy + " circumventions"] = counts[1];
  }
  rule();
  std::printf("%-36s %9s %14s\n", "Vantage/domain", "evasions", "circumventions");
  rule();
  n["min domain circumvention share"] = 1.0;
  for (const auto& [domain, counts] : per_domain) {
    std::printf("%-36s %9d %14d\n", domain.c_str(), counts[0], counts[1]);
    double share = double(counts[1]) / counts[0];
    n["min domain circumvention share"] = std::min(n["min domain circumvention share"], share);
    n["max domain circumvention share"] = std::max(n["max domain circumvention share"], share);
  }
  rule();
  std::printf("Paper: padding the SNI/hostname circumvents for pokerstars-like\n");
  std::printf("tolerant servers; subdomain mutation circumvents where wildcard\n");
  std::printf("vhosts exist (wiki.dailymotion.com); other servers answer 400/403/\n");
  std::printf("301/505, so applicability varies by domain.\n");
}

// Baseline (§3.4 / §6 design rationale): Geneva-style evolutionary evasion
// search vs CenFuzz's deterministic sweep, against every commercial vendor.
void baseline_geneva(Memo&, Numbers& n) {
  std::printf("%-10s | %-30s | %-28s\n", "", "genetic search", "CenFuzz sweep");
  std::printf("%-10s | %8s %7s %12s | %8s %7s %9s\n", "vendor", "probes", "evades",
              "circumvents", "probes", "evades", "coverage");
  rule();
  n["min sweep probes"] = 1e9;
  for (const std::string& vendor : censor::commercial_vendors()) {
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, "lab-" + vendor);
    Line lab_a = censored_line(2, 2, cfg, /*vhosts=*/true);
    evolve::GeneticOptions gopts;
    gopts.generations = 12;
    evolve::GeneticResult g = evolve::evolve_evasion(*lab_a.net, lab_a.client, kServer,
                                                     "www.blocked.example", gopts);
    // The deterministic sweep on an identical fresh deployment.
    Line lab_b = censored_line(2, 2, cfg, /*vhosts=*/true);
    fuzz::CenFuzz fuzzer(*lab_b.net, lab_b.client);
    fuzz::CenFuzzReport report = fuzzer.run(kServer, "www.blocked.example", "www.example.org");
    int evading = 0, testable = 0;
    for (const fuzz::FuzzMeasurement& m : report.measurements) {
      if (m.outcome == fuzz::FuzzOutcome::kUntestable) continue;
      ++testable;
      if (m.outcome == fuzz::FuzzOutcome::kSuccessful) ++evading;
    }
    std::printf("%-10s | %8d %7s %12s | %8zu %7d %9d\n", vendor.c_str(),
                g.total_probes, g.found_evasion ? "yes" : "no",
                g.found_circumvention ? "yes" : "no", report.total_requests, evading,
                testable);
    n["vendors without genetic evasion"] += !g.found_evasion;
    n["max genetic probes"] = std::max<double>(n["max genetic probes"], g.total_probes);
    n["min sweep probes"] = std::min<double>(n["min sweep probes"], report.total_requests);
    n["max sweep probes"] = std::max<double>(n["max sweep probes"], report.total_requests);
  }
  rule();
  std::printf("The genetic search needs an order of magnitude fewer probes to find\n");
  std::printf("one working evasion, but its winners differ per device and per run —\n");
  std::printf("useless as a cross-device fingerprint. CenFuzz spends a fixed ~1000\n");
  std::printf("probes and produces an identically-indexed outcome vector for\n");
  std::printf("every device, which is what §7's clustering consumes. This is the\n");
  std::printf("trade-off behind the paper's choice of deterministic fuzzing (§6).\n");
}

namespace {

constexpr const char* kStaticPayload = "DISGUISER-CONTROL-PAYLOAD-4711";

/// Attach a control server next to the hosting router of the scenario's
/// foreign endpoints (i.e. beyond the national censors on the egress path):
/// the scenario network, rebuilt with one more host.
net::Ipv4Address deploy_control_server(scenario::CountryScenario& s) {
  const sim::Topology& topo = s.network->topology();
  sim::CompactTopologyBuilder b;
  for (sim::NodeId id = 0; id < topo.node_count(); ++id) {
    b.add_node(topo.node_name(id), topo.node_ip(id), topo.node_profile(id));
    for (const censor::ServiceBanner& svc : topo.node_services(id)) b.add_service(id, svc);
  }
  for (const auto& [x, y] : topo.links()) b.add_link(x, y);
  sim::NodeId foreign = *topo.find_by_ip(s.foreign_endpoints.front());
  sim::NodeId hosting_router = topo.neighbors(foreign).front();
  net::Ipv4Address ip(203, 0, 113, 7);
  sim::NodeId ctl = b.add_node("control-server", ip);
  b.add_link(hosting_router, ctl);
  s.network = s.network->clone_with(sim::Topology(b.build()));
  sim::EndpointProfile profile;
  profile.hosted_domains = {"control.invalid"};
  profile.static_payload = kStaticPayload;
  s.network->add_endpoint(ctl, profile);
  return ip;
}

/// One Disguiser probe: request `domain` from the control server; any
/// response other than the static payload (or silence) = interference.
enum class Verdict { kClean, kTamperedResponse, kNoResponse };

Verdict disguiser_probe(sim::Network& net, sim::NodeId client, net::Ipv4Address ctl,
                        const std::string& domain) {
  sim::Connection conn = net.open_connection(client, ctl, 80);
  if (conn.connect() != sim::ConnectResult::kEstablished) return Verdict::kNoResponse;
  std::vector<sim::Event> events =
      conn.send(net::HttpRequest::get(domain).serialize_bytes(), 64);
  net.clock().advance(120 * kSecond);
  if (events.empty()) return Verdict::kNoResponse;
  for (const sim::Event& ev : events) {
    const auto* tcp = std::get_if<sim::TcpEvent>(&ev);
    if (tcp == nullptr) continue;
    if (tcp->packet.tcp.has(net::TcpFlags::kRst) ||
        tcp->packet.tcp.has(net::TcpFlags::kFin)) {
      return Verdict::kTamperedResponse;
    }
    if (tcp->packet.payload.empty()) continue;
    auto resp = net::HttpResponse::parse(to_string(tcp->packet.payload));
    if (resp && resp->body == kStaticPayload) return Verdict::kClean;
    return Verdict::kTamperedResponse;  // anything else was injected
  }
  return Verdict::kNoResponse;
}

}  // namespace

// Baseline (§3.2): Disguiser-style detection — request censored content from
// a control server behind each country's censors that always answers with a
// known static payload; any deviation proves tampering.
void baseline_disguiser(Memo&, Numbers& n) {
  std::printf("%-4s %-26s | %-12s | %-30s\n", "Co.", "domain", "Disguiser",
              "CenTrace (detection + location)");
  rule();
  for (scenario::Country c : scenario::all_countries()) {
    scenario::CountryScenario s = scenario::make_country(c, scenario::Scale::kFull);
    if (s.incountry_client == sim::kInvalidNode) continue;
    net::Ipv4Address ctl = deploy_control_server(s);
    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    trace::CenTrace tracer(*s.network, s.incountry_client, opts);

    int agree = 0, total = 0;
    for (const std::string& domain : s.http_test_domains) {
      Verdict d = disguiser_probe(*s.network, s.incountry_client, ctl, domain);
      trace::CenTraceReport r = tracer.measure(ctl, domain, s.control_domain);
      const char* d_str =
          d == Verdict::kClean ? "clean" : d == Verdict::kNoResponse ? "drop" : "tampered";
      std::string ct = "clean";
      if (r.blocked) {
        ct = std::string(blocking_type_name(r.blocking_type)) + " at hop " +
             std::to_string(r.blocking_hop_ttl);
        if (r.blocking_as) ct += " (AS" + std::to_string(r.blocking_as->asn) + ")";
      }
      std::printf("%-4s %-26s | %-12s | %s\n",
                  std::string(scenario::country_code(c)).c_str(), domain.c_str(), d_str,
                  ct.c_str());
      ++total;
      if ((d != Verdict::kClean) == r.blocked) ++agree;
    }
    std::printf("  -> verdict agreement: %d/%d\n", agree, total);
    n["disagreements"] += total - agree;
  }
  rule();
  std::printf("Both methods agree on every verdict: the control server removes\n");
  std::printf("endpoint-behaviour ambiguity just as Disguiser intends. But the\n");
  std::printf("approach needs a server you control behind every censor and only\n");
  std::printf("answers *whether* — CenTrace additionally yields the hop, the AS,\n");
  std::printf("the device placement and its injection fingerprint from any\n");
  std::printf("infrastructural endpoint (§3.2's 'general-purpose' distinction).\n");
}

// Extension (§8 future work): CenTrace over DNS, and the on-path injection
// race over UDP.
void ext_dns(Memo&, Numbers& n) {
  constexpr net::Ipv4Address kResolver(10, 0, 9, 53);
  Line line = line_network(3, kResolver);
  sim::EndpointProfile profile;
  profile.hosted_domains = {"resolver.example"};
  profile.is_dns_resolver = true;
  line.net->add_endpoint(line.server, profile);
  censor::DeviceConfig cfg;
  cfg.id = "national-dns-injector";
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.dns_rules.add("blocked.example");
  cfg.dns_sinkhole = censor::dns_sinkhole_address();
  line.net->attach_device(line.routers[1], std::make_shared<censor::Device>(cfg));

  trace::CenTraceOptions opts;
  opts.repetitions = 5;
  opts.protocol = trace::ProbeProtocol::kDns;
  trace::CenTrace tracer(*line.net, line.client, opts);
  for (const char* domain : {"www.benign.example", "www.blocked.example"}) {
    trace::CenTraceReport r =
        tracer.measure(kResolver, domain, "www.control.example");
    n[std::string(domain) + " blocking hop"] = r.blocked ? r.blocking_hop_ttl : 0;
    std::printf("\nquery: %s\n", domain);
    std::printf("  blocked: %s", r.blocked ? "yes" : "no");
    if (r.blocked) {
      std::printf(" — injected answer at hop %d (%s, %s)", r.blocking_hop_ttl,
                  r.blocking_hop_ip ? r.blocking_hop_ip->str().c_str() : "?",
                  r.blocking_as ? r.blocking_as->name.c_str() : "?");
    }
    std::printf("\n");
    for (const trace::HopObservation& h : r.test_traces[0].hops) {
      std::printf("  TTL %2d -> %-7s", h.ttl,
                  std::string(probe_response_name(h.response)).c_str());
      if (h.tcp_packet && !h.tcp_packet->payload.empty() &&
          net::looks_like_tcp_dns(h.tcp_packet->payload)) {
        net::DnsMessage m = net::DnsMessage::parse_tcp(h.tcp_packet->payload);
        if (!m.answers.empty()) {
          std::printf("  A %s%s", m.answers[0].address.str().c_str(),
                      censor::match_dns_sinkhole(m.answers[0].address)
                          ? "  [known sinkhole]"
                          : "");
        }
      }
      std::printf("\n");
    }
  }
  // Over UDP an on-path injector races the resolver: the forged answer
  // arrives first and the genuine one after it.
  header("DNS over UDP: the on-path injection race");
  Line race = line_network(2, kResolver);
  race.net->add_endpoint(race.server, profile);
  cfg.id = "dns-udp-tap";
  cfg.on_path = true;
  race.net->attach_device(race.routers[1], std::make_shared<censor::Device>(cfg));
  std::vector<sim::Event> events = race.net->send_udp(
      race.client, kResolver, 53, net::make_dns_query("www.blocked.example").serialize(), 64);
  std::printf("\nquery www.blocked.example -> %zu answers received:\n", events.size());
  for (const sim::Event& ev : events) {
    const auto* udp = std::get_if<sim::UdpEvent>(&ev);
    if (udp == nullptr) continue;
    net::DnsMessage m = net::DnsMessage::parse(udp->datagram.payload);
    if (!m.answers.empty()) {
      bool sinkhole = censor::match_dns_sinkhole(m.answers[0].address).has_value();
      std::printf("  A %-15s %s\n", m.answers[0].address.str().c_str(),
                  sinkhole ? "[forged sinkhole — arrives first]"
                           : "[genuine resolver answer — too late]");
      n[sinkhole ? "UDP forged answers" : "UDP genuine answers"]++;
      if (n.count("UDP first answer forged") == 0) n["UDP first answer forged"] = sinkhole;
    }
  }
  std::printf("\nThe same TTL-limited machinery that locates HTTP/TLS censors\n");
  std::printf("pinpoints the DNS injector: the forged sinkhole answer appears\n");
  std::printf("exactly from the device's hop, benign names resolve end to end,\n");
  std::printf("and over UDP the on-path race (forged + genuine answers) is\n");
  std::printf("directly observable.\n");
}

// §4.1 path-variance calibration, behind the paper's 11-repetition default:
// per endpoint, the unique paths 200 traceroutes see and the traceroutes
// needed to cover 90% of them.
void path_variance(Memo&, Numbers& n) {
  scenario::VarianceScenario s = scenario::make_variance_world();
  std::printf("%3s | %10s %12s | %22s\n", "ep", "true paths", "paths seen",
              "traceroutes for 90%");
  rule();
  double sum_reps = 0.0, non_outlier_reps = 0.0;
  int outliers = 0;
  constexpr int kTraceroutes = 200;
  for (std::size_t e = 0; e < s.endpoints.size(); ++e) {
    // One traceroute = one flow (Paris-style consistency per connection);
    // consecutive traceroutes get fresh source ports.
    std::vector<std::vector<sim::NodeId>> observed;
    std::set<std::vector<sim::NodeId>> unique;
    for (int t = 0; t < kTraceroutes; ++t) {
      sim::Connection conn = s.network->open_connection(s.client, s.endpoints[e]);
      observed.push_back(conn.path());
      unique.insert(conn.path());
    }
    // First-appearance coverage: how many traceroutes until 90% of the
    // eventually-observed path set has been seen?
    std::size_t target = (unique.size() * 9 + 9) / 10;
    std::set<std::vector<sim::NodeId>> seen;
    int needed = kTraceroutes;
    for (int t = 0; t < kTraceroutes; ++t) {
      seen.insert(observed[static_cast<std::size_t>(t)]);
      if (seen.size() >= target) {
        needed = t + 1;
        break;
      }
    }
    sum_reps += needed;
    if (unique.size() > 100) {
      ++outliers;
    } else {
      non_outlier_reps += needed;
    }
    std::printf("%3zu | %10zu %12zu | %18d\n", e, s.true_path_counts[e], unique.size(),
                needed);
  }
  n["outliers"] = outliers;
  n["mean traceroutes, non-outliers"] = non_outlier_reps / double(s.endpoints.size() - outliers);
  rule();
  std::printf("average traceroutes for 90%% path coverage: %.1f (paper: 11)\n",
              sum_reps / static_cast<double>(s.endpoints.size()));
  std::printf("endpoints with >100 unique paths: %d (paper: exactly one outlier)\n",
              outliers);
}

// Ablation (§4.1 "Network path variance"): CenTrace repetitions vs
// localisation stability under ECMP. Every probe rides a fresh connection,
// so consecutive probes can take different equal-cost paths; per-hop
// majority voting over repeated sweeps converges on one answer (the deepest
// hop at which blocking holds on every path).
void ablation_repeats(Memo&, Numbers& n) {
  std::printf("3 of 4 equal-cost paths censored at hop 2, the fourth at hop 3;\n");
  std::printf("40 measurements per row.\n\n");
  std::printf("%5s | %10s | %6s %6s | %11s\n", "reps", "blocked", "hop=2", "hop=3",
              "consistency");
  rule();
  constexpr int kMeasurements = 40;
  for (int reps : {1, 3, 5, 7, 11, 15}) {
    // client - r1 - {a1..a4} - b - server: four equal-cost paths. Drop
    // censors sit on the links into a1, a2, a3 (hop 2) and into b (hop 3,
    // catching only traffic that came through the clean a4).
    sim::CompactTopologyBuilder topo;
    sim::NodeId client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId r1 = topo.add_node("r1", net::Ipv4Address(10, 0, 1, 1));
    topo.add_link(client, r1);
    sim::NodeId a[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = topo.add_node("a" + std::to_string(i),
                           net::Ipv4Address(10, 0, 2, std::uint8_t(i + 1)));
      topo.add_link(r1, a[i]);
    }
    sim::NodeId b = topo.add_node("b", net::Ipv4Address(10, 0, 3, 1));
    for (int i = 0; i < 4; ++i) topo.add_link(a[i], b);
    sim::NodeId server = topo.add_node("server", kServer);
    topo.add_link(b, server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "ECMP-AS", "XX"});
    sim::Network net(sim::Topology(topo.build()), std::move(db),
                     static_cast<std::uint64_t>(reps) * 101 + 7);
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net.add_endpoint(server, profile);
    int device = 0;
    for (sim::NodeId at : {a[0], a[1], a[2], b}) {
      censor::DeviceConfig cfg;
      cfg.id = "ecmp-dropper-" + std::to_string(device++);
      cfg.action = censor::BlockAction::kDrop;
      cfg.http_rules.add("blocked.example");
      net.attach_device(at, std::make_shared<censor::Device>(cfg));
    }

    trace::CenTraceOptions opts;
    opts.repetitions = reps;
    trace::CenTrace tracer(net, client, opts);
    int blocked = 0, hop2 = 0, hop3 = 0;
    for (int i = 0; i < kMeasurements; ++i) {
      trace::CenTraceReport r = measure_blocked(tracer);
      if (r.blocked) ++blocked;
      if (r.blocked && r.blocking_hop_ttl == 2) ++hop2;
      if (r.blocked && r.blocking_hop_ttl == 3) ++hop3;
    }
    int modal = std::max(hop2, hop3);
    std::printf("%5d | %7d/%d | %6d %6d | %10s\n", reps, blocked, kMeasurements, hop2,
                hop3, pct(modal, kMeasurements).c_str());
    n["unblocked measurements"] += kMeasurements - blocked;
    n["consistency at " + std::to_string(reps)] = double(modal) / kMeasurements;
  }
  rule();
  std::printf("Expectation: the blocked verdict is robust at every repetition\n");
  std::printf("count (all paths are censored). The reported hop, however, flips\n");
  std::printf("between 2 and 3 for single sweeps; with the paper's 11 repetitions\n");
  std::printf("the majority vote converges on one consistent location.\n");
}

// Ablation (§4.1): the 120 s inter-probe wait exists because stateful
// censors keep residual blocking state per (client, endpoint) pair.
void ablation_wait(Memo&, Numbers& n) {
  std::printf("%10s | %8s %12s %16s\n", "wait (s)", "blocked", "control ok",
              "blocking hop ok");
  rule();
  for (int wait_s : {0, 5, 30, 60, 120}) {
    censor::DeviceConfig cfg;
    cfg.id = "stateful";
    cfg.action = censor::BlockAction::kDrop;
    cfg.residual_block_ms = 90 * kSecond;  // aggressive residual window
    Line line = censored_line(3, 2, cfg);

    trace::CenTraceOptions opts;
    opts.repetitions = 5;
    opts.inter_probe_wait = static_cast<SimTime>(wait_s) * kSecond;
    trace::CenTrace tracer(*line.net, line.client, opts);

    // The test sweep plants residual state; does the control sweep after it
    // still reach the endpoint?
    int control_ok = 0, hop_correct = 0, blocked = 0;
    constexpr int kRuns = 5;
    for (int run = 0; run < kRuns; ++run) {
      tracer.sweep(kServer, "www.blocked.example");
      if (tracer.sweep(kServer, "www.example.org").endpoint_reached) ++control_ok;
      trace::CenTraceReport full = measure_blocked(tracer);
      if (full.blocked) ++blocked;
      if (full.blocking_hop_ip && *full.blocking_hop_ip == net::Ipv4Address(10, 0, 2, 1)) {
        ++hop_correct;
      }
    }
    std::printf("%10d | %7d/%d %11d/%d %15d/%d\n", wait_s, blocked, kRuns, control_ok,
                kRuns, hop_correct, kRuns);
    n["localized at " + std::to_string(wait_s) + " s"] = hop_correct;
  }
  rule();
  std::printf("Expectation: with short waits the residual window swallows even\n");
  std::printf("Control-Domain probes — the control sweep never reaches the\n");
  std::printf("endpoint, so CenTrace (conservatively) cannot even certify the\n");
  std::printf("blocking, let alone localise the device. With waits beyond the\n");
  std::printf("censor's residual window (the paper uses 120 s) everything works.\n");
}

// Fault matrix: CenTrace localisation, blocked-verdict recall and mean
// confidence for an RST injector at hop 3 of a 6-hop line, over seeds,
// under loss x {none, ICMP rate limiting, route churn, both}.
void fault_matrix(Memo&, Numbers& n) {
  constexpr int kTrials = 20;
  constexpr int kDeviceHop = 3;
  std::printf("%d trials/cell, RST injector at hop %d, 11-rep CenTrace\n\n", kTrials,
              kDeviceHop);
  std::printf("%-8s %-12s %10s %10s %12s %10s\n", "loss", "extra", "localized",
              "blocked", "confidence", "retries");
  rule();
  const struct {
    const char* name;
    bool rate_limit, churn;
  } extras[] = {{"none", false, false}, {"rate-limit", true, false}, {"churn", false, true},
                {"both", true, true}};

  n["cells not all localized, loss <= 0.10"] = 0;
  for (double loss : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    for (const auto& extra : extras) {
      sim::FaultPlan plan;
      plan.default_link.loss = loss;
      if (extra.rate_limit) {
        plan.default_node.icmp_rate_per_sec = 0.0005;
        plan.default_node.icmp_burst = 2.0;
      }
      if (extra.churn) plan.route_flap_period = 10 * kMinute;
      int localized = 0, blocked = 0, loss_recovered = 0;
      double confidence_sum = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        // Churn cells run on the ECMP-diamond variant so flapping has an
        // alternative path to swap onto.
        censor::DeviceConfig cfg;
        cfg.id = "rst";
        cfg.action = censor::BlockAction::kRstInject;
        Line line = censored_line(5, kDeviceHop, cfg, false,
                                  static_cast<std::uint64_t>(trial + 1), extra.churn);
        line.net->set_fault_plan(plan);
        trace::CenTrace tracer(*line.net, 0, trace::CenTraceOptions{});
        trace::CenTraceReport r = measure_blocked(tracer);
        if (r.blocked) ++blocked;
        if (r.blocked && r.blocking_hop_ttl == kDeviceHop && r.blocking_hop_ip &&
            *r.blocking_hop_ip == net::Ipv4Address(10, 0, kDeviceHop, 1)) {
          ++localized;
        }
        confidence_sum += r.confidence.overall;
        loss_recovered += r.confidence.loss_recovered_probes;
      }
      std::printf("%-8.2f %-12s %10s %10s %12.3f %10d\n", loss, extra.name,
                  pct(localized, kTrials).c_str(), pct(blocked, kTrials).c_str(),
                  confidence_sum / kTrials, loss_recovered);
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.2f %s", loss, extra.name);
      n[std::string("localized ") + cell] = double(localized) / kTrials;
      n[std::string("confidence ") + cell] = confidence_sum / kTrials;
      if (loss <= 0.1 && localized < kTrials) ++n["cells not all localized, loss <= 0.10"];
    }
  }
  rule();
  std::printf("localized = blocked verdict at the true hop with the true IP.\n");
  std::printf("confidence = mean CenTraceReport confidence.overall per cell.\n");
}

}  // namespace bench

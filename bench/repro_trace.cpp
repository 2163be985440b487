// The CenTrace-only experiments: Table 1, Figures 1/3/4/10-12, §4.3's
// quoted packets and the endpoint-ASN attribution baseline. They read the
// `kTrace11` and `kTrace5` runs of the four countries.
#include <set>

#include "bench_common.hpp"
#include "report/aggregate.hpp"

namespace bench {

// Table 1: CenTrace measurements collected per country — in-country
// clients/CTs/blocked and remote endpoints/ASNs/CTs/blocked.
void table1_centrace(Memo& memo, Numbers& n) {
  std::printf("%-4s | %-28s | %-44s\n", "Co.", "In-country", "Remote");
  std::printf("%-4s | %8s %6s %7s | %9s %13s %6s %7s\n", "", "Clients", "CTs",
              "Blocked", "Endpoints", "Endpoint ASNs", "CTs", "Blocked");
  rule();
  for (scenario::Country c : scenario::all_countries()) {
    const auto& [s, r] = memo.country(c, Preset::kTrace11);
    std::size_t ic_blocked = 0;
    for (const auto& t : r.incountry_traces) {
      if (t.blocked) ++ic_blocked;
    }
    std::set<std::uint32_t> endpoint_asns;
    for (net::Ipv4Address ep : s.remote_endpoints) {
      if (auto as = s.network->geodb().lookup(ep)) endpoint_asns.insert(as->asn);
    }
    int clients = s.incountry_client == sim::kInvalidNode ? 0 : 1;
    scenario::ConsistencyStats cons = scenario::localisation_consistency(r);
    std::printf("%-4s | %8d %6zu %7zu | %9zu %13zu %6zu %7zu   (loc. consistency %.0f%%)\n",
                r.country.c_str(), clients, r.incountry_traces.size(), ic_blocked,
                s.remote_endpoints.size(), endpoint_asns.size(), r.remote_traces.size(),
                r.blocked_remote(), 100.0 * cons.mean_modal_as_share);
    n[r.country + " blocked share"] = double(r.blocked_remote()) / r.remote_traces.size();
    n[r.country + " in-country blocked"] = double(ic_blocked);
  }
  rule();
  std::printf("Paper (Table 1):  AZ 1/18/6   29/10/227/96\n");
  std::printf("                  BY -/-/-    123/19/1040/287\n");
  std::printf("                  KZ 1/14/8   95/29/868/748\n");
  std::printf("                  RU 1/14/0   1291/498/10488/418\n");
  std::printf("Shape check: KZ blocks the largest share of remote CTs, RU the\n");
  std::printf("smallest; AZ and KZ in-country clients see blocking, RU's does not.\n");
}

// Figure 3: blocked terminating-response type (RST / TIMEOUT / FIN / HTTP)
// x blocking location with respect to the client (C) and endpoint (E).
void fig3_blocking_dist(Memo& memo, Numbers& n) {
  std::printf("%-4s %-8s | %10s %6s %8s %7s | %5s\n", "Co.", "Type", "Path(C->E)",
              "At E", "No ICMP", "Past E", "Total");
  rule();
  std::size_t grand_total = 0, grand_path = 0, grand_at_e = 0, grand_no_icmp = 0;
  for (scenario::Country c : scenario::all_countries()) {
    const scenario::PipelineResult& r = memo.country(c, Preset::kTrace11).result;
    report::BlockingDistribution dist = report::blocking_distribution(r.remote_traces);
    for (const char* type : {"RST", "TIMEOUT", "FIN", "HTTP"}) {
      auto& row = dist.counts[type];
      std::printf("%-4s %-8s | %10d %6d %8d %7d | %5d\n", r.country.c_str(), type,
                  row["Path(C->E)"], row["At E"], row["No ICMP"], row["Past E"],
                  dist.type_total(type));
      grand_total += static_cast<std::size_t>(dist.type_total(type));
      grand_path += static_cast<std::size_t>(row["Path(C->E)"]);
      grand_at_e += static_cast<std::size_t>(row["At E"]);
      grand_no_icmp += static_cast<std::size_t>(row["No ICMP"]);
      n[r.country + " Past E"] += row["Past E"];
      n[std::string(type)] += dist.type_total(type);
    }
    rule();
  }
  n["blocked"] = double(grand_total);
  n["Path(C->E)"] = double(grand_path);
  std::printf("Totals: %zu blocked CTs; Path(C->E) %s, At E %s, No ICMP %zu\n",
              grand_total, pct(double(grand_path), double(grand_total)).c_str(),
              pct(double(grand_at_e), double(grand_total)).c_str(), grand_no_icmp);
  std::printf("Paper: 73.97%% on the path, 16.19%% at the endpoint, 1 No-ICMP case;\n");
  std::printf("drops+resets dominate (94.75%%); Past E appears only in RU.\n");
}

// Figure 4: in-path vs on-path device counts per country, and the hop
// distance between the blocking location and the endpoint.
void fig4_inpath_onpath(Memo& memo, Numbers& n) {
  std::printf("%-4s | %8s %8s | %-40s\n", "Co.", "In-path", "On-path",
              "Hops away from endpoint (min/q1/med/q3/max)");
  rule();
  int total = 0, within_two = 0;
  for (scenario::Country c : scenario::all_countries()) {
    const scenario::PipelineResult& r = memo.country(c, Preset::kTrace11).result;
    report::PlacementDistribution dist = report::placement_distribution(r.remote_traces);
    for (int away : dist.hops_from_endpoint) {
      ++total;
      if (away <= 2) ++within_two;
    }
    std::printf("%-4s | %8d %8d | %d / %d / %d / %d / %d  (n=%zu)\n", r.country.c_str(),
                dist.in_path, dist.on_path, dist.hops_quantile(0.0),
                dist.hops_quantile(0.25), dist.hops_quantile(0.5),
                dist.hops_quantile(0.75), dist.hops_quantile(1.0),
                dist.hops_from_endpoint.size());
    n[r.country + " in-path"] = dist.in_path;
    n[r.country + " on-path"] = dist.on_path;
  }
  n["within 2 hops share"] = double(within_two) / total;
  rule();
  std::printf("Blocking within 1-2 hops of the endpoint: %s of localized CTs\n",
              pct(within_two, total).c_str());
  std::printf("Paper: AZ and KZ exclusively in-path; BY mostly on-path RST\n");
  std::printf("injection; RU mostly in-path; >35%% of blocking happens 1-2 hops\n");
  std::printf("from the endpoint.\n");
}

// §4.3 "Do devices sending ICMP errors quote sent packets?": the RFC 792 /
// RFC 1812 quote split and in-flight header-rewrite rates.
void quoted_packets(Memo& memo, Numbers& n) {
  std::size_t quotes = 0, rfc792 = 0, full_tcp = 0, tos_changed = 0, flags_changed = 0;
  for (scenario::Country c : scenario::all_countries()) {
    for (const auto& t : memo.country(c, Preset::kTrace5).result.remote_traces) {
      for (const trace::QuoteDiff& d : t.quote_diffs) {
        if (!d.parse_ok) continue;
        ++quotes;
        if (d.rfc792_minimal) ++rfc792;
        if (d.full_tcp_quoted) ++full_tcp;
        if (d.tos_changed) ++tos_changed;
        if (d.ip_flags_changed) ++flags_changed;
      }
    }
  }
  n["RFC 792 share"] = double(rfc792) / quotes;
  n["TOS changed share"] = double(tos_changed) / quotes;
  n["flags changed share"] = double(flags_changed) / quotes;
  std::printf("quoted packets analysed:        %zu\n", quotes);
  std::printf("RFC 792 minimal quotes:         %s   (paper: 57.6%%)\n",
              pct(double(rfc792), double(quotes)).c_str());
  std::printf("RFC 1812 fuller quotes:         %s   (paper: 42.4%%)\n",
              pct(double(quotes - rfc792), double(quotes)).c_str());
  std::printf("IP TOS differs from sent:       %s   (paper: 32.06%%)\n",
              pct(double(tos_changed), double(quotes)).c_str());
  std::printf("IP flags differ from sent:      %s   (paper: one packet)\n",
              pct(double(flags_changed), double(quotes)).c_str());
  std::printf("full TCP header recoverable:    %s\n",
              pct(double(full_tcp), double(quotes)).c_str());
}

// Baseline (§1, §4.3): endpoint-ASN attribution, what reachability
// platforms effectively report, vs CenTrace localisation, both judged
// against the ASN of the device that blocked (the simulator's ground truth).
void baseline_attribution(Memo& memo, Numbers& n) {
  std::printf("%-4s | %10s | %16s %16s | %14s\n", "Co.", "blocked", "endpoint-ASN ok",
              "CenTrace ok", "cross-country");
  rule();
  for (scenario::Country c : scenario::all_countries()) {
    const auto& [s, r] = memo.country(c, Preset::kTrace5);
    std::set<std::uint32_t> device_asns;
    std::map<std::uint32_t, std::uint32_t> asn_by_mgmt_ip;
    for (const auto& d : s.devices) {
      device_asns.insert(d.asn);
      if (!d.on_path) asn_by_mgmt_ip[d.mgmt_ip.value()] = d.asn;
    }
    int blocked = 0, baseline_ok = 0, centrace_ok = 0, cross_country = 0;
    for (const auto& t : r.remote_traces) {
      if (!t.blocked) continue;
      // "At E" blocking genuinely belongs to the endpoint (org firewall);
      // exclude it so both methods are judged on ISP/state censorship.
      if (t.location == trace::BlockingLocation::kAtEndpoint) continue;
      ++blocked;
      auto endpoint_as = s.network->geodb().lookup(t.endpoint);
      // Ground truth: the localized device IP belongs to a deployed device
      // whose ASN we know; for on-path taps use the localized AS itself
      // (the tap sits in that AS by construction).
      std::uint32_t truth_asn = 0;
      if (t.blocking_hop_ip != std::nullopt &&
          asn_by_mgmt_ip.count(t.blocking_hop_ip->value()) != 0) {
        truth_asn = asn_by_mgmt_ip.at(t.blocking_hop_ip->value());
      } else if (t.blocking_as && device_asns.count(t.blocking_as->asn) != 0) {
        truth_asn = t.blocking_as->asn;
      } else {
        continue;  // unlocalizable (silent hops): neither method judged
      }
      if (endpoint_as && endpoint_as->asn == truth_asn) ++baseline_ok;
      if (t.blocking_as && t.blocking_as->asn == truth_asn) ++centrace_ok;
      if (endpoint_as && t.blocking_as &&
          endpoint_as->country != t.blocking_as->country) {
        ++cross_country;
      }
    }
    std::printf("%-4s | %10d | %16s %16s | %14s\n", r.country.c_str(), blocked,
                pct(baseline_ok, blocked).c_str(), pct(centrace_ok, blocked).c_str(),
                pct(cross_country, blocked).c_str());
    n[r.country + " endpoint-ASN ok"] = double(baseline_ok) / blocked;
    n[r.country + " CenTrace ok"] = double(centrace_ok) / blocked;
    n[r.country + " cross-country"] = double(cross_country) / blocked;
  }
  rule();
  std::printf("Endpoint-ASN attribution credits the wrong network for most\n");
  std::printf("blocking (devices sit at national borders and transit ASes), and\n");
  std::printf("misses every cross-country case — KZ measurements dying in Russian\n");
  std::printf("transit would be reported as Kazakh censorship. CenTrace attributes\n");
  std::printf("to the device's AS by construction.\n");
}

namespace {

void print_trace(const scenario::CountryScenario& s, const trace::CenTraceReport& t) {
  std::printf("  %s (%s):\n", t.test_domain.c_str(),
              std::string(trace::probe_protocol_name(t.protocol)).c_str());
  for (std::size_t h = 0; h < t.control_path.size(); ++h) {
    int ttl = static_cast<int>(h) + 1;
    std::string label = "*";
    std::string as_str;
    if (t.control_path[h]) {
      label = t.control_path[h]->str();
      if (auto as = s.network->geodb().lookup(*t.control_path[h])) {
        as_str = " AS" + std::to_string(as->asn) + " " + as->name + " (" + as->country + ")";
      }
    }
    bool is_block = t.blocked && ttl == t.blocking_hop_ttl;
    std::string marker = is_block ? "   <== BLOCKING [" +
                                        std::string(blocking_type_name(t.blocking_type)) + "]"
                                  : "";
    std::printf("    hop %2d  %-15s%s%s\n", ttl, label.c_str(), as_str.c_str(),
                marker.c_str());
    if (is_block) break;
  }
  if (!t.blocked) {
    std::printf("    hop %2d  %-15s endpoint reached\n", t.endpoint_hop_distance,
                t.endpoint.str().c_str());
  } else if (t.location == trace::BlockingLocation::kAtEndpoint) {
    std::printf("    (blocking at the endpoint itself)\n");
  }
}

}  // namespace

// Figures 1 and 10-12: CenTrace path graphs per country — the measured hop
// chains (IP, AS, country) with the blocking link marked. Figure 1 is the
// in-country KZ view; Figures 10-12 are the remote views of AZ, BY, KZ.
void fig10_12_paths(Memo& memo, Numbers& n) {
  const auto& [kz, kz_result] = memo.country(scenario::Country::kKZ, Preset::kTrace5);
  int shown = 0;
  for (const auto& t : kz_result.incountry_traces) {
    if (!t.blocked || shown >= 3) continue;
    print_trace(kz, t);
    ++shown;
  }

  // Figures 10-12: one representative blocked trace per distinct blocking AS.
  const std::pair<scenario::Country, const char*> figs[] = {
      {scenario::Country::kAZ, "Figure 10: remote CenTrace measurements in Azerbaijan"},
      {scenario::Country::kBY, "Figure 11: remote CenTrace measurements in Belarus"},
      {scenario::Country::kKZ, "Figure 12: remote CenTrace measurements in Kazakhstan"},
  };
  for (const auto& [country, title] : figs) {
    header(title);
    const auto& [s, r] = memo.country(country, Preset::kTrace5);
    std::set<std::uint32_t> seen_as;
    for (const auto& t : r.remote_traces) {
      if (!t.blocked || !t.blocking_as) continue;
      if (t.blocking_as->country == r.country) ++n[r.country + " domestic share"];
      if (!seen_as.insert(t.blocking_as->asn).second) continue;
      print_trace(s, t);
    }
    // Per-AS blocking summary line (the figures' aggregate view).
    int blocked = static_cast<int>(r.blocked_remote());
    n[r.country + " domestic share"] /= blocked;
    rule();
    for (const auto& [as_name, count] : report::blocked_by_as(r.remote_traces)) {
      std::printf("  %-48s %4d blocked CTs (%s)\n", as_name.c_str(), count,
                  pct(count, blocked).c_str());
      n[r.country + " " + as_name] = double(count) / blocked;
    }
  }
  std::printf("\nPaper: AZ blocking concentrates at the Telia->Delta Telecom entry\n");
  std::printf("link; BY blocking sits in the endpoint ASes; KZ blocking sits in\n");
  std::printf("JSC-Kazakhtelecom with a third of paths censored in Russian transit.\n");
}

}  // namespace bench

// cenrepro [ID...]: the paper's evaluation as one table of experiments. It
// runs the named experiments in order (all of them, in table order, without
// arguments) and prints their text, which bench/golden/bench_<ID>.txt holds
// byte for byte. Experiments that share a pipeline preset share one memoised
// run and sit side by side in the table, so a full run computes each pipeline
// once. A broken claim (the paper's words and a predicate over the numbers the
// experiment computed) is named on stderr and makes cenrepro exit 1.
#include <stdexcept>
#include <string_view>

#include "bench_common.hpp"

namespace {

using bench::Numbers;

struct Claim {
  const char* paper;
  bool (*holds)(const Numbers&);
};

struct Row {
  const char* id;
  const char* title;
  bench::Experiment* run;
  Claim claims[4];
};

constexpr Row kExperiments[] = {
    // Preset kTrace11.
    {"table1_centrace", "Table 1: CenTrace (CT) measurements collected", bench::table1_centrace,
     {{"KZ blocks the largest share of remote CTs, then AZ, BY, and RU the smallest",
       [](const Numbers& n) {
         return n.at("RU blocked share") < n.at("BY blocked share") &&
                n.at("BY blocked share") < n.at("AZ blocked share") &&
                n.at("AZ blocked share") < n.at("KZ blocked share");
       }},
      {"AZ and KZ in-country clients see blocking, RU's does not", [](const Numbers& n) {
         return n.at("AZ in-country blocked") > 0 && n.at("KZ in-country blocked") > 0 &&
                n.at("RU in-country blocked") == 0;
       }}}},
    {"fig3_blocking_dist", "Figure 3: blocking type and location per country",
     bench::fig3_blocking_dist,
     {{"Past E appears only in RU", [](const Numbers& n) {
         return n.at("RU Past E") > 0 &&
                n.at("AZ Past E") + n.at("BY Past E") + n.at("KZ Past E") == 0;
       }},
      {"drops+resets dominate (94.75%)",
       [](const Numbers& n) { return n.at("RST") + n.at("TIMEOUT") > 0.9 * n.at("blocked"); }},
      {"73.97% on the path between client and endpoint",
       [](const Numbers& n) { return n.at("Path(C->E)") > 0.5 * n.at("blocked"); }}}},
    {"fig4_inpath_onpath", "Figure 4: in-path vs on-path and hops from endpoint",
     bench::fig4_inpath_onpath,
     {{"AZ and KZ exclusively in-path", [](const Numbers& n) {
         return n.at("AZ in-path") > 0 && n.at("KZ in-path") > 0 &&
                n.at("AZ on-path") + n.at("KZ on-path") == 0;
       }},
      {"BY mostly on-path; RU mostly in-path", [](const Numbers& n) {
         return n.at("BY on-path") > n.at("BY in-path") && n.at("RU in-path") > n.at("RU on-path");
       }},
      {">35% of blocking happens 1-2 hops from the endpoint",
       [](const Numbers& n) { return n.at("within 2 hops share") > 0.35; }}}},
    // Preset kTrace5.
    {"quoted_packets", "4.3: quoted packets in ICMP Time Exceeded responses",
     bench::quoted_packets,
     {{"routers quote both ways: RFC 792 minimal (57.6%) and RFC 1812 fuller quotes",
       [](const Numbers& n) { return n.at("RFC 792 share") > 0 && n.at("RFC 792 share") < 1; }},
      {"IP TOS often differs from sent (32.06%), IP flags almost never (one packet)",
       [](const Numbers& n) {
         return n.at("TOS changed share") > 0.1 && n.at("flags changed share") < 0.01;
       }}}},
    {"baseline_attribution", "Baseline: endpoint-ASN attribution vs CenTrace localisation",
     bench::baseline_attribution,
     {{"CenTrace attributes blocking to the device's AS", [](const Numbers& n) {
         return n.at("AZ CenTrace ok") == 1 && n.at("BY CenTrace ok") == 1 &&
                n.at("KZ CenTrace ok") == 1 && n.at("RU CenTrace ok") == 1;
       }},
      {"endpoint-ASN attribution credits the wrong network for most AZ and KZ blocking",
       [](const Numbers& n) {
         return n.at("AZ endpoint-ASN ok") < 0.5 && n.at("KZ endpoint-ASN ok") < 0.5;
       }},
      {"KZ measurements die in Russian transit (21.81%)",
       [](const Numbers& n) { return n.at("KZ cross-country") > 0.2; }}}},
    {"fig10_12_paths", "Figure 1: CenTrace measurements from a client in KZ",
     bench::fig10_12_paths,
     {{"AZ blocking concentrates at the Telia->Delta Telecom entry link",
       [](const Numbers& n) { return n.at("AZ AS29049 DELTA-TELECOM (AZ)") > 0.5; }},
      {"BY blocking sits in the endpoint ASes",
       [](const Numbers& n) { return n.at("BY domestic share") > 0.5; }},
      {"KZ blocking sits in JSC-Kazakhtelecom with a third of paths censored in Russian transit",
       [](const Numbers& n) {
         return n.at("KZ AS9198 JSC-KAZAKHTELECOM (KZ)") > 0.5 &&
                n.at("KZ AS43727 KVANT-TELEKOM (RU)") > 0.2;
       }}}},
    // Preset kBanners.
    {"table_banners", "5.2 Case study: blockpage labels vs banner labels (worldwide)",
     bench::table_banners,
     {{"76 endpoints -> 71 in-path device IPs -> 62 with an open service",
       [](const Numbers& n) {
         return n.at("endpoints") == 76 && n.at("device IPs") == 71 && n.at("with service") == 62;
       }},
      {"banner labels match blockpage labels exactly",
       [](const Numbers& n) { return n.at("label disagreements") == 0; }},
      {"Cisco 7, Fortinet 5, Kerio 2, Palo Alto 2, DDoS-Guard 1, MikroTik 1, Kaspersky 1",
       [](const Numbers& n) {
         return n.at("census vendors") == 7 && n.at("census mismatches") == 0;
       }},
      {"19 banner + 4 blockpage-only = 23 commercial deployments", [](const Numbers& n) {
         return n.at("banner deployments") == 19 && n.at("blockpage-only deployments") == 4;
       }}}},
    {"filtermap", "Baseline: FilterMap-style blockpage clustering (§3.3)", bench::filtermap,
     {{"blockpage clustering separates vendors where pages exist",
       [](const Numbers& n) { return n.at("impure clusters") == 0; }},
      {"only 5 blockpage injections across the four countries",
       [](const Numbers& n) { return n.at("blockpage share") < 0.1; }}}},
    // Preset kFuzz60.
    {"fig5_fuzz_success", "Figure 5: success rates of CenFuzz strategies per country",
     bench::fig5_fuzz_success,
     {{"evasion rises POST (1.76%) < PUT (21.63%) < PATCH (82.15%) < empty (92.01%)",
       [](const Numbers& n) {
         return n.at("POST") < n.at("PUT") && n.at("PUT") < n.at("PATCH") &&
                n.at("PATCH") < n.at("<empty>");
       }},
      {"leading pads mostly blocked, trailing pads mostly evade", [](const Numbers& n) {
         return std::min(n.at("0*host*1"), n.at("0*host*2")) >
                std::max(n.at("1*host*0"), n.at("2*host*0"));
       }},
      {"header addition and client certificates never evade", [](const Numbers& n) {
         return n.at("Header Alt. max") + n.at("Client Certificate Alt. max") == 0;
       }}}},
    {"fig9_feature_importance", "Figure 9: importance (MDI) of device features",
     bench::fig9_feature_importance,
     {{"CensorResponse is the most important feature (here: among the top 3)",
       [](const Numbers& n) { return n.at("CensorResponse rank") <= 3; }},
      {"Capitalize strategies (bar Http Word Cap.), max-version alternation and client "
       "certificates carry almost no signal",
       [](const Numbers& n) {
         for (const char* f :
              {"Get Word Cap.", "Host Word Cap.", "Max Version Alt.", "Client Certificate Alt."}) {
           if (n.at(f) >= 0.005) return false;
         }
         return true;
       }}}},
    {"vendor_correlation", "7.4: pairwise Spearman correlation of device feature vectors",
     bench::vendor_correlation,
     {{"same-vendor deployments correlate more strongly than cross-vendor pairs",
       [](const Numbers& n) { return n.at("min same-vendor rho") > n.at("max cross-vendor rho"); }},
      {"Cisco-Cisco rho>0.78", [](const Numbers& n) { return n.at("Cisco vs Cisco") > 0.78; }}}},
    // Preset kFuzz90.
    {"fig6_clusters", "Figure 6: clusters of endpoints (CenTrace + CenFuzz + banner features)",
     bench::fig6_clusters,
     {{"69% form tight same-country clusters",
       [](const Numbers& n) { return n.at("same-country share") >= 0.69; }},
      {"a few clusters hold same-vendor devices deployed in different countries",
       [](const Numbers& n) { return n.at("cross-country clusters") >= 1; }},
      {"7.1: behaviour alone labels the deployments without banner or blockpage",
       [](const Numbers& n) {
         return n.at("dark endpoints") > 0 &&
                n.at("dark endpoints labelled") == n.at("dark endpoints");
       }}}},
    // No shared run.
    {"fig2_modes", "Figure 2: CenTrace operation under different device behaviours",
     bench::fig2_modes,
     {{"(A) the control sweep reaches the endpoint",
       [](const Numbers& n) { return n.at("A endpoint hop") == 5; }},
      {"(B)-(E) localize the device at its hop, (E) after correcting the copied TTL",
       [](const Numbers& n) {
         return n.at("B hop") == 3 && n.at("C hop") == 3 && n.at("D hop") == 3 &&
                n.at("E hop") == 3 && n.at("E TTL-copy") == 1;
       }},
      {"only the tap (D) answers alongside ICMP, as an on-path device", [](const Numbers& n) {
         return n.at("D on-path") == 1 &&
                n.at("B on-path") + n.at("C on-path") + n.at("E on-path") == 0;
       }}}},
    {"table2_strategies", "Table 2: CenFuzz HTTP request and TLS Client Hello strategies",
     bench::table2_strategies,
     {{"Table 2's counts: 410 HTTP and 69 TLS permutations per run", [](const Numbers& n) {
         return n.at("HTTP permutations") == 410 && n.at("TLS permutations") == 69;
       }}}},
    {"circumvention", "6.3: evasion vs circumvention from in-country vantage points",
     bench::circumvention,
     {{"padding the SNI/hostname circumvents for tolerant servers", [](const Numbers& n) {
         return n.at("SNI Pad. circumventions") > 0 && n.at("Hostname Pad. circumventions") > 0;
       }},
      {"subdomain mutation circumvents where wildcard vhosts exist",
       [](const Numbers& n) { return n.at("SNI Subdomain Alt. circumventions") > 0; }},
      {"applicability varies by domain", [](const Numbers& n) {
         return n.at("min domain circumvention share") < 0.5 &&
                n.at("max domain circumvention share") > 0.9;
       }}}},
    {"fig7_8_grammar", "Figure 7: parts of a HTTP GET request", bench::fig7_8_grammar,
     {{"a GET request is CRLF-delimited lines: request line, Host and one more header",
       [](const Numbers& n) { return n.at("HTTP lines") == 3; }},
      {"the Client Hello carries the hostname in its SNI extension",
       [](const Numbers& n) { return n.at("SNI round-trips") == 1; }}}},
    {"baseline_geneva", "Baseline: Geneva-style genetic search vs deterministic CenFuzz",
     bench::baseline_geneva,
     {{"the genetic search finds an evasion with an order of magnitude fewer probes",
       [](const Numbers& n) {
         return n.at("vendors without genetic evasion") == 0 &&
                10 * n.at("max genetic probes") <= n.at("min sweep probes");
       }},
      {"CenFuzz spends a fixed probe budget on every device",
       [](const Numbers& n) { return n.at("min sweep probes") == n.at("max sweep probes"); }}}},
    {"baseline_disguiser", "Baseline: Disguiser-style control-server detection (§3.2)",
     bench::baseline_disguiser,
     {{"both methods agree on every verdict",
       [](const Numbers& n) { return n.at("disagreements") == 0; }}}},
    {"ext_dns", "Extension: CenTrace over DNS (paper §8 future work)", bench::ext_dns,
     {{"the forged answer appears exactly from the device's hop; benign names resolve",
       [](const Numbers& n) {
         return n.at("www.blocked.example blocking hop") == 2 &&
                n.at("www.benign.example blocking hop") == 0;
       }},
      {"over UDP the forged answer arrives first and the genuine one after it",
       [](const Numbers& n) {
         return n.at("UDP forged answers") == 1 && n.at("UDP genuine answers") == 1 &&
                n.at("UDP first answer forged") == 1;
       }}}},
    {"path_variance", "4.1 calibration: path variance across 20 endpoints, 200 traceroutes each",
     bench::path_variance,
     {{"exactly one endpoint with >100 unique paths",
       [](const Numbers& n) { return n.at("outliers") == 1; }},
      {"11 traceroutes cover 90% of the paths on average (outlier aside)",
       [](const Numbers& n) { return n.at("mean traceroutes, non-outliers") <= 11; }}}},
    {"ablation_repeats", "Ablation: CenTrace repetitions vs localisation stability under ECMP",
     bench::ablation_repeats,
     {{"the blocked verdict is robust at every repetition count",
       [](const Numbers& n) { return n.at("unblocked measurements") == 0; }},
      {"with 11 repetitions the majority vote converges on one location",
       [](const Numbers& n) {
         return n.at("consistency at 11") == 1 && n.at("consistency at 1") < 1;
       }}}},
    {"ablation_wait", "Ablation: inter-probe wait vs stateful-censor contamination",
     bench::ablation_wait,
     {{"waits inside the censor's residual window poison the measurement",
       [](const Numbers& n) { return n.at("localized at 0 s") == 0; }},
      {"at the paper's 120 s every measurement localizes the device",
       [](const Numbers& n) { return n.at("localized at 120 s") == 5; }}}},
    {"fault_matrix", "Fault matrix: CenTrace resilience vs injected faults", bench::fault_matrix,
     {{"without faults every trial is localized with full confidence",
       [](const Numbers& n) {
         return n.at("localized 0.00 none") == 1 && n.at("confidence 0.00 none") > 0.999;
       }},
      {"up to 10% loss, with rate limiting and churn, every trial is localized",
       [](const Numbers& n) { return n.at("cells not all localized, loss <= 0.10") == 0; }},
      {"confidence falls as loss grows", [](const Numbers& n) {
         return n.at("confidence 0.20 none") < n.at("confidence 0.00 none");
       }}}},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> chosen;
  for (const Row& row : kExperiments) {
    if (argc == 1) chosen.push_back(&row);
  }
  for (int i = 1; i < argc; ++i) {
    for (const Row& row : kExperiments) {
      if (std::string_view(row.id) == argv[i]) chosen.push_back(&row);
    }
    if (chosen.size() != static_cast<std::size_t>(i)) {
      std::fprintf(stderr, "cenrepro: unknown experiment '%s'\nusage: cenrepro [ID...]; IDs:",
                   argv[i]);
      for (const Row& row : kExperiments) std::fprintf(stderr, " %s", row.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  bench::Memo memo;
  int broken = 0;
  for (const Row* row : chosen) {
    Numbers numbers;
    bench::header(row->title);
    row->run(memo, numbers);
    for (const Claim& claim : row->claims) {
      if (claim.holds == nullptr) break;
      bool holds = false;
      try {
        holds = claim.holds(numbers);
      } catch (const std::out_of_range&) {  // a number the experiment did not record
      }
      if (!holds) {
        std::fprintf(stderr, "cenrepro: %s: claim broken: %s\n", row->id, claim.paper);
        ++broken;
      }
    }
  }
  return broken == 0 ? 0 : 1;
}

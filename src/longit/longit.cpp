#include "longit/longit.hpp"

#include <map>
#include <utility>

#include "core/fingerprint.hpp"
#include "core/json.hpp"
#include "obs/observer.hpp"
#include "report/from_json.hpp"
#include "scenario/world.hpp"

namespace cen::longit {

namespace {

std::uint64_t records_fingerprint(const campaign::CampaignResult& result) {
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(result.records.size()));
  for (const campaign::CampaignRecord& r : result.records) {
    fp.mix(r.stage);
    fp.mix(r.task_id);
    fp.mix(r.country);
    fp.mix(r.json);
  }
  return fp.digest();
}

void churn_to_json(JsonWriter& w, const EpochChurn& ec) {
  w.begin_object();
  w.key("epoch").value(ec.epoch);
  w.key("site").value(ec.site);
  w.key("devices").begin_array();
  for (const DeviceChurn& d : ec.devices) {
    w.begin_object();
    w.key("device_id").value(d.device_id);
    w.key("rules_added").begin_array();
    for (const std::string& r : d.rules_added) w.value(r);
    w.end_array();
    w.key("rules_removed").begin_array();
    for (const std::string& r : d.rules_removed) w.value(r);
    w.end_array();
    w.key("vendor_upgraded").value(d.vendor_upgraded);
    w.key("blockpage_swapped").value(d.blockpage_swapped);
    w.key("coverage_dropped").value(d.coverage_dropped);
    w.key("coverage_restored").value(d.coverage_restored);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::vector<report::EndpointEpochState> extract_epoch_states(
    const campaign::CampaignResult& result) {
  // Pass 1: probe-stage vendor labels, keyed (site, device IP). Probe
  // records follow their site's trace records, so vendor resolution needs
  // the full record set before the trace pass.
  std::map<std::string, std::string, std::less<>> probe_vendor;
  for (const campaign::CampaignRecord& r : result.records) {
    if (r.stage != "probe") continue;
    auto report = report::probe_report_from_json(r.json);
    if (!report || !report->vendor) continue;
    probe_vendor.emplace(r.country + ":" + report->ip.str(), *report->vendor);
  }

  std::vector<report::EndpointEpochState> states;
  for (const campaign::CampaignRecord& r : result.records) {
    if (r.stage != "trace") continue;
    auto report = report::trace_report_from_json(r.json);
    if (!report) continue;
    report::EndpointEpochState s;
    s.site = r.country;
    s.endpoint = report->endpoint.str();
    s.domain = report->test_domain;
    s.protocol = std::string(trace::probe_protocol_name(report->protocol));
    s.blocked = report->blocked;
    if (report->blocked) {
      s.blocking_type = std::string(trace::blocking_type_name(report->blocking_type));
      if (report->blockpage_vendor) {
        s.vendor = *report->blockpage_vendor;
      } else if (report->blocking_hop_ip) {
        auto it = probe_vendor.find(r.country + ":" + report->blocking_hop_ip->str());
        if (it != probe_vendor.end()) s.vendor = it->second;
      }
    }
    s.blocking_hop_ttl = report->blocking_hop_ttl;
    s.endpoint_hop_distance = report->endpoint_hop_distance;
    states.push_back(std::move(s));
  }
  return states;
}

std::vector<EpochChurn> ground_truth_churn(const campaign::CampaignSpec& spec,
                                           int max_epoch) {
  std::vector<EpochChurn> all;
  if (!spec.evolution || max_epoch <= 0) return all;
  auto replay_site = [&](sim::Network& net, const std::string& code,
                         std::vector<std::string> pool,
                         const std::vector<std::string>& https) {
    pool.insert(pool.end(), https.begin(), https.end());
    std::vector<EpochChurn> history =
        apply_evolution(net, code, *spec.evolution, max_epoch, pool);
    for (EpochChurn& ec : history) all.push_back(std::move(ec));
  };
  if (spec.world) {
    scenario::WorldScenario ws = scenario::make_world(*spec.world, spec.seed);
    replay_site(*ws.network, spec.world->name,
                spec.http_domains.empty() ? ws.http_test_domains : spec.http_domains,
                spec.https_domains.empty() ? ws.https_test_domains : spec.https_domains);
  } else {
    for (scenario::Country c : spec.effective_countries()) {
      scenario::CountryScenario sc = scenario::make_country(c, spec.scale, spec.seed);
      replay_site(*sc.network, std::string(scenario::country_code(c)),
                  spec.http_domains.empty() ? sc.http_test_domains : spec.http_domains,
                  spec.https_domains.empty() ? sc.https_test_domains : spec.https_domains);
    }
  }
  return all;
}

LongitResult run(const LongitSpec& spec, const campaign::RunControl& control) {
  LongitResult result;
  result.name = spec.base.name;

  std::vector<EpochChurn> churn_history;
  if (spec.collect_churn && spec.base.evolution && spec.epochs > 1) {
    churn_history = ground_truth_churn(spec.base, spec.epochs - 1);
  }

  std::vector<report::EndpointEpochState> prev_states;
  for (int epoch = 0; epoch < spec.epochs; ++epoch) {
    campaign::CampaignSpec epoch_spec = spec.base;
    epoch_spec.evolution_epoch = epoch;
    campaign::CampaignResult cr = campaign::run(epoch_spec, control);

    EpochSummary summary;
    summary.epoch = epoch;
    summary.executed = cr.tool_tasks_executed();
    summary.cache_hits = cr.cache_hits();
    if (!cr.complete) {
      // Budget exhausted mid-epoch: the campaign cache holds the
      // checkpoint; re-running resumes this epoch (earlier epochs are
      // pure cache hits and cost nothing).
      result.complete = false;
      result.epochs.push_back(std::move(summary));
      return result;
    }

    summary.records_fingerprint = records_fingerprint(cr);
    summary.records = cr.records.size();

    obs::CkmsQuantiles* obs_ttl =
        control.observer != nullptr
            ? &control.observer->metrics().quantiles("longit.blocking_hop_ttl")
            : nullptr;
    std::vector<report::EndpointEpochState> states = extract_epoch_states(cr);
    for (const report::EndpointEpochState& s : states) {
      if (!s.blocked) continue;
      ++summary.blocked;
      if (s.blocking_hop_ttl >= 0) {
        // Fed from the merged task-identity-ordered stream — never from
        // per-worker shards — so the sketch state is worker-count
        // invariant (see obs/ckms.hpp).
        result.hop_ttl.observe(static_cast<std::uint64_t>(s.blocking_hop_ttl));
        if (obs_ttl != nullptr) {
          obs_ttl->observe(static_cast<std::uint64_t>(s.blocking_hop_ttl));
        }
      }
    }
    if (epoch > 0) {
      summary.diff = report::diff_epochs(prev_states, states, epoch - 1, epoch);
      result.newly_blocked_per_epoch.observe(
          static_cast<std::uint64_t>(summary.diff.newly_blocked.size()));
      for (const EpochChurn& ec : churn_history) {
        if (ec.epoch == epoch) summary.churn.push_back(ec);
      }
    }

    if (control.observer != nullptr) {
      obs::Observer& o = *control.observer;
      // Run-invariant span per epoch: the "duration" encodes the record
      // count, mirroring the campaign stage spans.
      o.tracer().complete("longit:epoch:" + std::to_string(epoch), "longit", 0,
                          static_cast<SimTime>(summary.records));
      o.metrics().gauge("longit.epochs_completed").set_max(epoch + 1);
      o.metrics().counter("longit.newly_blocked").inc(summary.diff.newly_blocked.size());
      o.metrics().counter("longit.newly_unblocked").inc(summary.diff.newly_unblocked.size());
      o.metrics().counter("longit.vendor_changes").inc(summary.diff.vendor_changes.size());
    }

    prev_states = std::move(states);
    result.epochs.push_back(std::move(summary));
    result.epochs_completed = epoch + 1;
  }
  result.complete = true;
  return result;
}

std::string LongitResult::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  w.key("complete").value(complete);
  w.key("epochs_completed").value(epochs_completed);
  w.key("epochs").begin_array();
  for (const EpochSummary& e : epochs) {
    w.begin_object();
    w.key("epoch").value(e.epoch);
    w.key("records_fingerprint").value(e.records_fingerprint);
    w.key("records").value(static_cast<std::uint64_t>(e.records));
    w.key("blocked").value(static_cast<std::uint64_t>(e.blocked));
    w.key("diff").raw_value(report::to_json(e.diff));
    w.key("churn").begin_array();
    for (const EpochChurn& ec : e.churn) churn_to_json(w, ec);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("quantiles").begin_object();
  w.key("blocking_hop_ttl").begin_object();
  for (const obs::QuantileTarget& t : hop_ttl.targets()) {
    w.key("p" + std::to_string(t.percent)).value(hop_ttl.query(t.percent));
  }
  w.key("count").value(hop_ttl.count());
  w.end_object();
  w.key("newly_blocked_per_epoch").begin_object();
  for (const obs::QuantileTarget& t : newly_blocked_per_epoch.targets()) {
    w.key("p" + std::to_string(t.percent))
        .value(newly_blocked_per_epoch.query(t.percent));
  }
  w.key("count").value(newly_blocked_per_epoch.count());
  w.end_object();
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace cen::longit

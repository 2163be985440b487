#include "campaign/spec.hpp"

#include <cstdio>

#include "core/fingerprint.hpp"
#include "core/json.hpp"

namespace cen::campaign {

namespace {

std::optional<trace::ProbeProtocol> protocol_from_name(std::string_view name) {
  for (int i = 0; i < 4; ++i) {
    auto p = static_cast<trace::ProbeProtocol>(i);
    if (trace::probe_protocol_name(p) == name) return p;
  }
  return std::nullopt;
}

bool fail(std::string* error, std::string_view what) {
  if (error != nullptr) *error = std::string(what);
  return false;
}

bool parse_domains(const JsonValue& doc, std::string_view key,
                   std::vector<std::string>& out, std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_array()) return fail(error, std::string(key) + " must be an array");
  for (const JsonValue& d : v->array) {
    if (!d.is_string()) return fail(error, std::string(key) + " entries must be strings");
    out.push_back(d.string);
  }
  return true;
}

bool parse_faults(const JsonValue& doc, sim::FaultPlan& plan, std::string* error) {
  const JsonValue* v = doc.find("faults");
  if (v == nullptr) return true;
  if (!v->is_object()) return fail(error, "faults must be an object");
  plan.transient_loss = v->get_number("transient_loss", plan.transient_loss);
  plan.default_link.loss = v->get_number("link_loss", plan.default_link.loss);
  plan.default_link.duplicate = v->get_number("link_duplicate", plan.default_link.duplicate);
  plan.default_link.reorder = v->get_number("link_reorder", plan.default_link.reorder);
  plan.default_link.truncate = v->get_number("link_truncate", plan.default_link.truncate);
  plan.default_link.corrupt = v->get_number("link_corrupt", plan.default_link.corrupt);
  plan.default_node.icmp_blackhole =
      v->get_bool("icmp_blackhole", plan.default_node.icmp_blackhole);
  plan.default_node.icmp_rate_per_sec =
      v->get_number("icmp_rate_per_sec", plan.default_node.icmp_rate_per_sec);
  plan.default_node.icmp_burst = v->get_number("icmp_burst", plan.default_node.icmp_burst);
  plan.route_flap_period = saturate_cast<SimTime>(
      v->get_number("route_flap_period_ms", static_cast<double>(plan.route_flap_period)));
  plan.mgmt_drop = v->get_number("mgmt_drop", plan.mgmt_drop);
  plan.banner_truncate = v->get_number("banner_truncate", plan.banner_truncate);
  return true;
}

}  // namespace

std::vector<scenario::Country> CampaignSpec::effective_countries() const {
  return countries.empty() ? scenario::all_countries() : countries;
}

std::uint64_t CampaignSpec::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(name);
  for (scenario::Country c : effective_countries()) {
    fp.mix(scenario::country_code(c));
  }
  fp.mix(static_cast<std::uint64_t>(scale));
  fp.mix(seed);
  fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(max_endpoints)));
  fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(max_domains)));
  fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(fuzz_max_endpoints)));
  fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(ambig_max_endpoints)));
  fp.mix(static_cast<std::uint64_t>(http_domains.size()));
  for (const std::string& d : http_domains) fp.mix(d);
  fp.mix(static_cast<std::uint64_t>(https_domains.size()));
  for (const std::string& d : https_domains) fp.mix(d);
  fp.mix(trace.fingerprint());
  fp.mix(trace_tomography);
  fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(trace_vantages)));
  fp.mix(fuzz.fingerprint());
  fp.mix(ambig.fingerprint());
  fp.mix(stages.trace);
  fp.mix(stages.probe);
  fp.mix(stages.fuzz);
  fp.mix(stages.ambig);
  fp.mix(stages.cluster);
  fp.mix(faults.fingerprint());
  if (world) {
    fp.mix(true);
    fp.mix(world->fingerprint());
  }
  if (evolution) {
    fp.mix(true);
    fp.mix(evolution->fingerprint());
    fp.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(evolution_epoch)));
  }
  return fp.digest();
}

std::string to_json(const CampaignSpec& spec) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("countries").begin_array();
  for (scenario::Country c : spec.effective_countries()) {
    w.value(scenario::country_code(c));
  }
  w.end_array();
  w.key("scale").value(spec.scale == scenario::Scale::kFull ? "full" : "small");
  w.key("seed").value(static_cast<std::uint64_t>(spec.seed));
  w.key("max_endpoints").value(spec.max_endpoints);
  w.key("max_domains").value(spec.max_domains);
  w.key("fuzz_max_endpoints").value(spec.fuzz_max_endpoints);
  w.key("ambig_max_endpoints").value(spec.ambig_max_endpoints);
  w.key("batch_size").value(spec.batch_size);
  w.key("http_domains").begin_array();
  for (const std::string& d : spec.http_domains) w.value(d);
  w.end_array();
  w.key("https_domains").begin_array();
  for (const std::string& d : spec.https_domains) w.value(d);
  w.end_array();
  w.key("stages").begin_object();
  w.key("trace").value(spec.stages.trace);
  w.key("probe").value(spec.stages.probe);
  w.key("fuzz").value(spec.stages.fuzz);
  w.key("ambig").value(spec.stages.ambig);
  w.key("cluster").value(spec.stages.cluster);
  w.end_object();
  w.key("trace").begin_object();
  w.key("max_ttl").value(spec.trace.max_ttl);
  w.key("retries").value(spec.trace.retries);
  w.key("repetitions").value(spec.trace.repetitions);
  w.key("timeout_run_stop").value(spec.trace.timeout_run_stop);
  w.key("protocol").value(trace::probe_protocol_name(spec.trace.protocol));
  w.key("retry_backoff_ms").value(static_cast<std::int64_t>(spec.trace.retry_backoff));
  w.key("adaptive_max_retries").value(spec.trace.adaptive_max_retries);
  w.key("silent_channel_abort").value(spec.trace.silent_channel_abort);
  w.key("tomography").value(spec.trace_tomography);
  w.key("vantages").value(spec.trace_vantages);
  w.end_object();
  w.key("fuzz").begin_object();
  w.key("retries").value(spec.fuzz.retries);
  w.key("run_http").value(spec.fuzz.run_http);
  w.key("run_tls").value(spec.fuzz.run_tls);
  w.key("baseline_attempts").value(spec.fuzz.baseline_attempts);
  w.end_object();
  w.key("ambig").begin_object();
  w.key("repetitions").value(spec.ambig.repetitions);
  w.key("retries").value(spec.ambig.retries);
  w.key("wait_after_blocked_ms").value(static_cast<std::int64_t>(spec.ambig.wait_after_blocked));
  w.key("wait_after_ok_ms").value(static_cast<std::int64_t>(spec.ambig.wait_after_ok));
  w.key("retry_backoff_ms").value(static_cast<std::int64_t>(spec.ambig.retry_backoff));
  w.key("max_distance_ttl").value(spec.ambig.max_distance_ttl);
  w.key("order_salt").value(static_cast<std::uint64_t>(spec.ambig.order_salt));
  w.end_object();
  w.key("faults").begin_object();
  w.key("transient_loss").value(spec.faults.transient_loss);
  w.key("link_loss").value(spec.faults.default_link.loss);
  w.key("link_duplicate").value(spec.faults.default_link.duplicate);
  w.key("link_reorder").value(spec.faults.default_link.reorder);
  w.key("link_truncate").value(spec.faults.default_link.truncate);
  w.key("link_corrupt").value(spec.faults.default_link.corrupt);
  w.key("icmp_blackhole").value(spec.faults.default_node.icmp_blackhole);
  w.key("icmp_rate_per_sec").value(spec.faults.default_node.icmp_rate_per_sec);
  w.key("icmp_burst").value(spec.faults.default_node.icmp_burst);
  w.key("route_flap_period_ms")
      .value(static_cast<std::int64_t>(spec.faults.route_flap_period));
  w.key("mgmt_drop").value(spec.faults.mgmt_drop);
  w.key("banner_truncate").value(spec.faults.banner_truncate);
  w.end_object();
  if (spec.world) {
    w.key("world").raw_value(worldgen::to_json(*spec.world));
  }
  if (spec.evolution) {
    w.key("evolution").raw_value(longit::to_json(*spec.evolution));
    w.key("evolution_epoch").value(spec.evolution_epoch);
  }
  w.end_object();
  return std::move(w).str();
}

std::optional<CampaignSpec> spec_from_json(std::string_view text, std::string* error) {
  auto doc = json_parse(text);
  if (doc == nullptr || !doc->is_object()) {
    if (error != nullptr) *error = "not a valid JSON object";
    return std::nullopt;
  }
  CampaignSpec spec;
  spec.name = doc->get_string("name", spec.name);

  if (const JsonValue* cs = doc->find("countries"); cs != nullptr) {
    if (!cs->is_array()) {
      fail(error, "countries must be an array of country codes");
      return std::nullopt;
    }
    for (const JsonValue& c : cs->array) {
      auto country = c.is_string() ? scenario::country_from_code(c.string) : std::nullopt;
      if (!country) {
        fail(error, "unknown country code: " + (c.is_string() ? c.string : "<non-string>"));
        return std::nullopt;
      }
      spec.countries.push_back(*country);
    }
  }

  std::string scale = doc->get_string("scale", "small");
  if (scale == "full") {
    spec.scale = scenario::Scale::kFull;
  } else if (scale == "small") {
    spec.scale = scenario::Scale::kSmall;
  } else {
    fail(error, "scale must be \"full\" or \"small\": " + scale);
    return std::nullopt;
  }

  spec.seed =
      saturate_cast<std::uint64_t>(doc->get_number("seed", static_cast<double>(spec.seed)));
  spec.max_endpoints = doc->get_int("max_endpoints", spec.max_endpoints);
  spec.max_domains = doc->get_int("max_domains", spec.max_domains);
  spec.fuzz_max_endpoints = doc->get_int("fuzz_max_endpoints", spec.fuzz_max_endpoints);
  spec.ambig_max_endpoints = doc->get_int("ambig_max_endpoints", spec.ambig_max_endpoints);
  spec.batch_size = doc->get_int("batch_size", spec.batch_size);
  if (spec.batch_size < 1) {
    fail(error, "batch_size must be >= 1");
    return std::nullopt;
  }

  if (!parse_domains(*doc, "http_domains", spec.http_domains, error)) return std::nullopt;
  if (!parse_domains(*doc, "https_domains", spec.https_domains, error)) return std::nullopt;

  if (const JsonValue* st = doc->find("stages"); st != nullptr && st->is_object()) {
    spec.stages.trace = st->get_bool("trace", spec.stages.trace);
    spec.stages.probe = st->get_bool("probe", spec.stages.probe);
    spec.stages.fuzz = st->get_bool("fuzz", spec.stages.fuzz);
    spec.stages.ambig = st->get_bool("ambig", spec.stages.ambig);
    spec.stages.cluster = st->get_bool("cluster", spec.stages.cluster);
  }

  if (const JsonValue* tr = doc->find("trace"); tr != nullptr && tr->is_object()) {
    spec.trace.max_ttl = tr->get_int("max_ttl", spec.trace.max_ttl);
    spec.trace.retries = tr->get_int("retries", spec.trace.retries);
    spec.trace.repetitions = tr->get_int("repetitions", spec.trace.repetitions);
    spec.trace.timeout_run_stop = tr->get_int("timeout_run_stop", spec.trace.timeout_run_stop);
    spec.trace.retry_backoff = saturate_cast<SimTime>(tr->get_number(
        "retry_backoff_ms", static_cast<double>(spec.trace.retry_backoff)));
    spec.trace.adaptive_max_retries =
        tr->get_int("adaptive_max_retries", spec.trace.adaptive_max_retries);
    spec.trace.silent_channel_abort =
        tr->get_int("silent_channel_abort", spec.trace.silent_channel_abort);
    spec.trace_tomography = tr->get_bool("tomography", spec.trace_tomography);
    spec.trace_vantages = tr->get_int("vantages", spec.trace_vantages);
    if (const JsonValue* p = tr->find("protocol"); p != nullptr) {
      auto proto = p->is_string() ? protocol_from_name(p->string) : std::nullopt;
      if (!proto) {
        fail(error, "unknown trace protocol");
        return std::nullopt;
      }
      spec.trace.protocol = *proto;
    }
  }

  if (const JsonValue* fz = doc->find("fuzz"); fz != nullptr && fz->is_object()) {
    spec.fuzz.retries = fz->get_int("retries", spec.fuzz.retries);
    spec.fuzz.run_http = fz->get_bool("run_http", spec.fuzz.run_http);
    spec.fuzz.run_tls = fz->get_bool("run_tls", spec.fuzz.run_tls);
    spec.fuzz.baseline_attempts = fz->get_int("baseline_attempts", spec.fuzz.baseline_attempts);
  }

  if (const JsonValue* am = doc->find("ambig"); am != nullptr && am->is_object()) {
    spec.ambig.repetitions = am->get_int("repetitions", spec.ambig.repetitions);
    spec.ambig.retries = am->get_int("retries", spec.ambig.retries);
    spec.ambig.wait_after_blocked = saturate_cast<SimTime>(
        am->get_number("wait_after_blocked_ms", static_cast<double>(spec.ambig.wait_after_blocked)));
    spec.ambig.wait_after_ok = saturate_cast<SimTime>(
        am->get_number("wait_after_ok_ms", static_cast<double>(spec.ambig.wait_after_ok)));
    spec.ambig.retry_backoff = saturate_cast<SimTime>(
        am->get_number("retry_backoff_ms", static_cast<double>(spec.ambig.retry_backoff)));
    spec.ambig.max_distance_ttl = am->get_int("max_distance_ttl", spec.ambig.max_distance_ttl);
    spec.ambig.order_salt = saturate_cast<std::uint64_t>(
        am->get_number("order_salt", static_cast<double>(spec.ambig.order_salt)));
  }

  if (!parse_faults(*doc, spec.faults, error)) return std::nullopt;

  if (const JsonValue* wd = doc->find("world"); wd != nullptr) {
    std::string world_error;
    std::optional<worldgen::WorldSpec> world = worldgen::spec_from_doc(*wd, &world_error);
    if (!world) {
      fail(error, "world: " + world_error);
      return std::nullopt;
    }
    spec.world = std::move(*world);
  }

  if (const JsonValue* ev = doc->find("evolution"); ev != nullptr) {
    std::string ev_error;
    std::optional<longit::EvolutionPlan> plan = longit::evolution_from_doc(*ev, &ev_error);
    if (!plan) {
      fail(error, ev_error);
      return std::nullopt;
    }
    spec.evolution = std::move(*plan);
    spec.evolution_epoch = doc->get_int("evolution_epoch", spec.evolution_epoch);
    if (spec.evolution_epoch < 0) {
      fail(error, "evolution_epoch must be >= 0");
      return std::nullopt;
    }
  }
  return spec;
}

std::optional<CampaignSpec> load_spec_file(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open spec file: " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return spec_from_json(text, error);
}

}  // namespace cen::campaign

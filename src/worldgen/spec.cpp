#include "worldgen/spec.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/fingerprint.hpp"
#include "core/json.hpp"

namespace cen::worldgen {

namespace {

bool fail(std::string* error, std::string_view what) {
  if (error != nullptr) *error = std::string(what);
  return false;
}

bool parse_strings(const JsonValue& doc, std::string_view key,
                   std::vector<std::string>& out, std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_array()) return fail(error, std::string(key) + " must be an array");
  out.clear();
  for (const JsonValue& d : v->array) {
    if (!d.is_string()) return fail(error, std::string(key) + " entries must be strings");
    out.push_back(d.string);
  }
  return true;
}

std::uint32_t get_u32(const JsonValue& doc, std::string_view key, std::uint32_t fallback) {
  return saturate_cast<std::uint32_t>(doc.get_number(key, static_cast<double>(fallback)));
}

}  // namespace

std::optional<WorldSpec> WorldSpec::tier(std::string_view name) {
  WorldSpec s;
  if (name == "1k") {
    s.name = "world-1k";
    s.transit_ases = 8;
    s.regional_ases = 24;
    s.stub_ases = 60;
    s.endpoints = 1'000;
    return s;
  }
  if (name == "100k") {
    s.name = "world-100k";
    s.transit_ases = 16;
    s.regional_ases = 120;
    s.stub_ases = 800;
    s.endpoints = 100'000;
    return s;
  }
  if (name == "1m") {
    s.name = "world-1m";
    s.transit_ases = 24;
    s.regional_ases = 300;
    s.stub_ases = 2'500;
    s.endpoints = 1'000'000;
    return s;
  }
  return std::nullopt;
}

const std::vector<std::string>& WorldSpec::tier_names() {
  static const std::vector<std::string> kTiers = {"1k", "100k", "1m"};
  return kTiers;
}

std::vector<CountryRegimeSpec> WorldSpec::effective_countries() const {
  if (!countries.empty()) return countries;
  // Default mixture: a censored-heavy synthetic region set spanning every
  // rule-granularity family in make_rules (exact / suffix / substring) and
  // both blockpage and RST-injection styles, plus uncensored backdrop
  // countries so campaigns see negative controls.
  std::vector<CountryRegimeSpec> defaults;
  auto add = [&defaults](std::string code, double weight, bool censored,
                         std::vector<std::string> vendors, double coverage,
                         double on_path) {
    CountryRegimeSpec c;
    c.code = std::move(code);
    c.weight = weight;
    c.censored = censored;
    c.vendors = std::move(vendors);
    c.deploy_coverage = coverage;
    c.on_path_share = on_path;
    defaults.push_back(std::move(c));
  };
  add("XA", 2.0, true, {"Fortinet", "Kerio", "PaloAlto"}, 0.6, 0.10);
  add("XB", 1.5, true, {"BY-DPI", "MikroTik"}, 0.8, 0.05);
  add("XC", 1.5, true, {"TSPU", "RU-RSTCOPY", "DDoSGuard"}, 0.7, 0.25);
  add("XD", 1.0, true, {"Cisco", "Kaspersky"}, 0.5, 0.10);
  add("XE", 2.0, false, {}, 0.0, 0.0);
  add("XF", 2.0, false, {}, 0.0, 0.0);
  return defaults;
}

std::uint64_t WorldSpec::fingerprint() const {
  FingerprintBuilder fp;
  fp.mix(name);
  fp.mix(static_cast<std::uint64_t>(transit_ases));
  fp.mix(static_cast<std::uint64_t>(regional_ases));
  fp.mix(static_cast<std::uint64_t>(stub_ases));
  fp.mix(static_cast<std::uint64_t>(routers_per_transit));
  fp.mix(static_cast<std::uint64_t>(routers_per_regional));
  fp.mix(static_cast<std::uint64_t>(routers_per_stub));
  fp.mix(endpoints);
  fp.mix(endpoint_zipf);
  fp.mix(static_cast<std::uint64_t>(profile_templates));
  fp.mix(static_cast<std::uint64_t>(http_test_domains.size()));
  for (const std::string& d : http_test_domains) fp.mix(d);
  fp.mix(static_cast<std::uint64_t>(https_test_domains.size()));
  for (const std::string& d : https_test_domains) fp.mix(d);
  fp.mix(control_domain);
  const std::vector<CountryRegimeSpec> regimes = effective_countries();
  fp.mix(static_cast<std::uint64_t>(regimes.size()));
  for (const CountryRegimeSpec& c : regimes) {
    fp.mix(c.code);
    fp.mix(c.weight);
    fp.mix(c.censored);
    fp.mix(static_cast<std::uint64_t>(c.vendors.size()));
    for (const std::string& v : c.vendors) fp.mix(v);
    fp.mix(c.deploy_coverage);
    fp.mix(c.on_path_share);
  }
  return fp.digest();
}

namespace {

/// Shortest decimal that parses back to exactly `v` (JsonWriter's default
/// %.6g is lossy; spec fingerprints must survive a JSON round-trip).
std::string lossless_double(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string to_json(const WorldSpec& spec) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(spec.name);
  w.key("transit_ases").value(static_cast<std::uint64_t>(spec.transit_ases));
  w.key("regional_ases").value(static_cast<std::uint64_t>(spec.regional_ases));
  w.key("stub_ases").value(static_cast<std::uint64_t>(spec.stub_ases));
  w.key("routers_per_transit").value(static_cast<std::uint64_t>(spec.routers_per_transit));
  w.key("routers_per_regional").value(static_cast<std::uint64_t>(spec.routers_per_regional));
  w.key("routers_per_stub").value(static_cast<std::uint64_t>(spec.routers_per_stub));
  w.key("endpoints").value(spec.endpoints);
  w.key("endpoint_zipf").raw_value(lossless_double(spec.endpoint_zipf));
  w.key("profile_templates").value(static_cast<std::uint64_t>(spec.profile_templates));
  w.key("http_test_domains").begin_array();
  for (const std::string& d : spec.http_test_domains) w.value(d);
  w.end_array();
  w.key("https_test_domains").begin_array();
  for (const std::string& d : spec.https_test_domains) w.value(d);
  w.end_array();
  w.key("control_domain").value(spec.control_domain);
  w.key("countries").begin_array();
  for (const CountryRegimeSpec& c : spec.effective_countries()) {
    w.begin_object();
    w.key("code").value(c.code);
    w.key("weight").raw_value(lossless_double(c.weight));
    w.key("censored").value(c.censored);
    w.key("vendors").begin_array();
    for (const std::string& v : c.vendors) w.value(v);
    w.end_array();
    w.key("deploy_coverage").raw_value(lossless_double(c.deploy_coverage));
    w.key("on_path_share").raw_value(lossless_double(c.on_path_share));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

std::optional<WorldSpec> spec_from_doc(const JsonValue& doc, std::string* error) {
  if (!doc.is_object()) {
    fail(error, "world spec must be a JSON object");
    return std::nullopt;
  }
  WorldSpec spec;
  spec.name = doc.get_string("name", spec.name);
  spec.transit_ases = get_u32(doc, "transit_ases", spec.transit_ases);
  spec.regional_ases = get_u32(doc, "regional_ases", spec.regional_ases);
  spec.stub_ases = get_u32(doc, "stub_ases", spec.stub_ases);
  spec.routers_per_transit = get_u32(doc, "routers_per_transit", spec.routers_per_transit);
  spec.routers_per_regional = get_u32(doc, "routers_per_regional", spec.routers_per_regional);
  spec.routers_per_stub = get_u32(doc, "routers_per_stub", spec.routers_per_stub);
  spec.endpoints = saturate_cast<std::uint64_t>(
      doc.get_number("endpoints", static_cast<double>(spec.endpoints)));
  spec.endpoint_zipf = doc.get_number("endpoint_zipf", spec.endpoint_zipf);
  spec.profile_templates = get_u32(doc, "profile_templates", spec.profile_templates);
  if (spec.transit_ases == 0 || spec.stub_ases == 0) {
    fail(error, "world spec needs at least one transit and one stub AS");
    return std::nullopt;
  }
  if (spec.routers_per_transit == 0 || spec.routers_per_regional == 0 ||
      spec.routers_per_stub == 0) {
    fail(error, "routers_per_* must be >= 1");
    return std::nullopt;
  }
  if (spec.profile_templates == 0) {
    fail(error, "profile_templates must be >= 1");
    return std::nullopt;
  }
  if (!parse_strings(doc, "http_test_domains", spec.http_test_domains, error)) {
    return std::nullopt;
  }
  if (!parse_strings(doc, "https_test_domains", spec.https_test_domains, error)) {
    return std::nullopt;
  }
  if (spec.http_test_domains.empty() || spec.https_test_domains.empty()) {
    fail(error, "http/https test domain lists must be non-empty");
    return std::nullopt;
  }
  spec.control_domain = doc.get_string("control_domain", spec.control_domain);

  if (const JsonValue* cs = doc.find("countries"); cs != nullptr) {
    if (!cs->is_array()) {
      fail(error, "countries must be an array of regime objects");
      return std::nullopt;
    }
    for (const JsonValue& cv : cs->array) {
      if (!cv.is_object()) {
        fail(error, "countries entries must be objects");
        return std::nullopt;
      }
      CountryRegimeSpec c;
      c.code = cv.get_string("code", "");
      if (c.code.empty()) {
        fail(error, "country regime needs a non-empty code");
        return std::nullopt;
      }
      c.weight = cv.get_number("weight", c.weight);
      if (!(c.weight > 0.0)) {
        fail(error, "country weight must be > 0");
        return std::nullopt;
      }
      c.censored = cv.get_bool("censored", c.censored);
      if (!parse_strings(cv, "vendors", c.vendors, error)) return std::nullopt;
      c.deploy_coverage = cv.get_number("deploy_coverage", c.deploy_coverage);
      c.on_path_share = cv.get_number("on_path_share", c.on_path_share);
      spec.countries.push_back(std::move(c));
    }
  }
  return spec;
}

std::optional<WorldSpec> spec_from_json(std::string_view text, std::string* error) {
  auto doc = json_parse(text);
  if (doc == nullptr) {
    if (error != nullptr) *error = "not valid JSON";
    return std::nullopt;
  }
  return spec_from_doc(*doc, error);
}

std::optional<WorldSpec> load_spec_file(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open world spec file: " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return spec_from_json(text, error);
}

}  // namespace cen::worldgen

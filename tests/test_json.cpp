#include <gtest/gtest.h>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "check/engines.hpp"
#include "core/fingerprint.hpp"
#include "core/json.hpp"
#include "report/epoch_diff.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"

using namespace cen;

TEST(JsonEscape, SpecialCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("CenTrace");
  w.key("hops").value(7);
  w.key("blocked").value(true);
  w.key("vendor").null();
  w.key("rate").value(0.5);
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"CenTrace","hops":7,"blocked":true,"vendor":null,"rate":0.5})");
}

TEST(JsonWriter, NestedArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("path").begin_array();
  w.value("10.0.0.1");
  w.null();
  w.value("10.0.2.1");
  w.end_array();
  w.key("empty").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"path":["10.0.0.1",null,"10.0.2.1"],"empty":[]})");
}

TEST(JsonWriter, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("i").value(i);
    w.end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,1.5]");
}

TEST(JsonWriter, KeyEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("we\"ird").value(1);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"we\"ird":1})");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // unterminated
  }
  {
    JsonWriter w;
    w.value(1);
    EXPECT_THROW(w.value(2), std::logic_error);  // two top-level values
  }
}

TEST(JsonReport, CenTraceReportSerializes) {
  trace::CenTraceReport r;
  r.test_domain = "www.blocked.example";
  r.control_domain = "www.example.org";
  r.endpoint = net::Ipv4Address(10, 0, 9, 1);
  r.blocked = true;
  r.blocking_type = trace::BlockingType::kRst;
  r.location = trace::BlockingLocation::kOnPathToEndpoint;
  r.placement = trace::DevicePlacement::kInPath;
  r.blocking_hop_ttl = 4;
  r.blocking_hop_ip = net::Ipv4Address(10, 0, 4, 1);
  r.blocking_as = geo::AsInfo{9198, "JSC-KAZAKHTELECOM", "KZ"};
  r.endpoint_hop_distance = 7;
  r.control_path = {net::Ipv4Address(10, 0, 1, 1), std::nullopt};

  std::string json = report::to_json(r);
  EXPECT_NE(json.find(R"("tool":"centrace")"), std::string::npos);
  EXPECT_NE(json.find(R"("blocked":true)"), std::string::npos);
  EXPECT_NE(json.find(R"("blocking_type":"RST")"), std::string::npos);
  EXPECT_NE(json.find(R"("blocking_hop_ip":"10.0.4.1")"), std::string::npos);
  EXPECT_NE(json.find(R"("asn":9198)"), std::string::npos);
  EXPECT_NE(json.find(R"("control_path":["10.0.1.1",null])"), std::string::npos);
  EXPECT_EQ(json.find("control_sweeps"), std::string::npos);  // not requested
}

TEST(JsonReport, CenTraceSweepsIncludedOnRequest) {
  trace::CenTraceReport r;
  trace::SingleTrace sweep;
  sweep.domain = "d";
  trace::HopObservation h;
  h.ttl = 1;
  h.response = trace::ProbeResponse::kIcmpTtlExceeded;
  h.icmp_router = net::Ipv4Address(10, 0, 1, 1);
  sweep.hops.push_back(h);
  r.test_traces.push_back(sweep);
  std::string json = report::to_json(r, /*include_sweeps=*/true);
  EXPECT_NE(json.find(R"("test_sweeps")"), std::string::npos);
  EXPECT_NE(json.find(R"("response":"ICMP")"), std::string::npos);
}

TEST(JsonReport, CenFuzzReportSerializes) {
  fuzz::CenFuzzReport r;
  r.endpoint = net::Ipv4Address(10, 0, 9, 1);
  r.test_domain = "t";
  r.control_domain = "c";
  r.http_baseline_blocked = true;
  fuzz::FuzzMeasurement m;
  m.strategy = "Get Word Alt.";
  m.permutation = "PATCH";
  m.outcome = fuzz::FuzzOutcome::kSuccessful;
  m.circumvented = true;
  r.measurements.push_back(m);
  std::string json = report::to_json(r);
  EXPECT_NE(json.find(R"("tool":"cenfuzz")"), std::string::npos);
  EXPECT_NE(json.find(R"("strategy":"Get Word Alt.")"), std::string::npos);
  EXPECT_NE(json.find(R"("outcome":"successful")"), std::string::npos);
  EXPECT_NE(json.find(R"("circumvented":true)"), std::string::npos);
}

TEST(JsonReport, CenProbeReportSerializes) {
  probe::DeviceProbeReport r;
  r.ip = net::Ipv4Address(10, 0, 4, 1);
  r.open_ports = {22, 443};
  probe::BannerGrab grab;
  grab.ip = r.ip;
  grab.port = 22;
  grab.protocol = "ssh";
  grab.banner = "SSH-2.0-Cisco-1.25";
  r.banners.push_back(grab);
  r.vendor = "Cisco";
  std::string json = report::to_json(r);
  EXPECT_NE(json.find(R"("open_ports":[22,443])"), std::string::npos);
  EXPECT_NE(json.find(R"("banner":"SSH-2.0-Cisco-1.25")"), std::string::npos);
  EXPECT_NE(json.find(R"("vendor":"Cisco")"), std::string::npos);
}

TEST(JsonValid, AcceptsWellFormed) {
  EXPECT_TRUE(json_valid(R"({"a":1,"b":[true,null,"x"],"c":{"d":-1.5e3}})"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("  42  "));
  EXPECT_TRUE(json_valid(R"("escaped \" \\ \n ÿ")"));
  EXPECT_TRUE(json_valid("[1,2.5,-3,0.0,1e9,1E-9]"));
}

TEST(JsonValid, RejectsMalformed) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("[1,2,]"));
  EXPECT_FALSE(json_valid(R"({"a":})"));
  EXPECT_FALSE(json_valid(R"({"a" 1})"));
  EXPECT_FALSE(json_valid(R"({a:1})"));
  EXPECT_FALSE(json_valid("01"));          // leading zero... actually valid? "01" is invalid JSON
  EXPECT_FALSE(json_valid("1 2"));         // trailing content
  EXPECT_FALSE(json_valid("nul"));
  EXPECT_FALSE(json_valid(R"("unterminated)"));
  EXPECT_FALSE(json_valid("\"bad\\q\""));  // bad escape
  EXPECT_FALSE(json_valid("1."));
  EXPECT_FALSE(json_valid("[1e]"));
}

TEST(JsonValid, EveryEmittedReportValidates) {
  // All three serializers over a populated report set.
  trace::CenTraceReport tr;
  tr.test_domain = "a\"b\nweird";
  tr.endpoint = net::Ipv4Address(10, 0, 9, 1);
  tr.blocked = true;
  tr.blocking_hop_ip = net::Ipv4Address(10, 0, 4, 1);
  tr.blocking_as = geo::AsInfo{1, "A\\S", "XX"};
  trace::SingleTrace sweep;
  sweep.domain = "d";
  trace::HopObservation h;
  h.ttl = 1;
  sweep.hops.push_back(h);
  tr.test_traces.push_back(sweep);
  tr.control_path = {net::Ipv4Address(1, 1, 1, 1), std::nullopt};
  EXPECT_TRUE(json_valid(report::to_json(tr, true)));

  fuzz::CenFuzzReport fz;
  fuzz::FuzzMeasurement m;
  m.strategy = "Http Delimiter Rem.";
  m.permutation = "\\r";  // backslash in permutation names
  fz.measurements.push_back(m);
  EXPECT_TRUE(json_valid(report::to_json(fz)));

  probe::DeviceProbeReport pr;
  pr.ip = net::Ipv4Address(10, 0, 4, 1);
  pr.open_ports = {22};
  probe::BannerGrab grab;
  grab.banner = "weird \"banner\"\r\n";
  grab.protocol = "ssh";
  pr.banners.push_back(grab);
  pr.stack = censor::StackFingerprint{};
  EXPECT_TRUE(json_valid(report::to_json(pr)));
}

// ---- Canonical key order + decoder round trips -------------------------
//
// The campaign cache splices report documents byte-for-byte, so the key
// order must be canonical: "tool" first, the measurement subject
// ("endpoint" / "ip") second, then "test_domain" / "control_domain" /
// "protocol" where applicable, then tool-specific fields in declaration
// order. These tests pin the contract.

namespace {

/// Assert that the top-level keys appear in exactly this relative order.
void expect_key_order(const std::string& json, const std::vector<std::string>& keys) {
  std::size_t last = 0;
  for (const std::string& key : keys) {
    std::size_t pos = json.find("\"" + key + "\":");
    ASSERT_NE(pos, std::string::npos) << "missing key " << key << " in " << json;
    EXPECT_GT(pos, last) << "key " << key << " out of canonical order in " << json;
    last = pos;
  }
}

}  // namespace

TEST(JsonReport, CanonicalKeyOrderAcrossTools) {
  trace::CenTraceReport tr;
  tr.endpoint = net::Ipv4Address(10, 0, 9, 1);
  tr.test_domain = "t";
  tr.control_domain = "c";
  expect_key_order(report::to_json(tr),
                   {"tool", "endpoint", "test_domain", "control_domain", "protocol",
                    "blocked", "blocking_type", "location", "placement",
                    "blocking_hop_ttl", "blocking_hop_ip", "blocking_as",
                    "endpoint_hop_distance", "ttl_copy_detected", "blockpage_vendor",
                    "injected_packet", "confidence", "degradation", "control_path",
                    "quote_diffs"});

  fuzz::CenFuzzReport fz;
  fz.endpoint = net::Ipv4Address(10, 0, 9, 1);
  fz.test_domain = "t";
  fz.control_domain = "c";
  expect_key_order(report::to_json(fz),
                   {"tool", "endpoint", "test_domain", "control_domain",
                    "http_baseline_blocked", "tls_baseline_blocked", "total_requests",
                    "skipped_strategies", "measurements"});

  probe::DeviceProbeReport pr;
  pr.ip = net::Ipv4Address(10, 0, 4, 1);
  expect_key_order(report::to_json(pr),
                   {"tool", "ip", "open_ports", "banners", "vendor", "stack"});
}

TEST(JsonReport, TraceDecodeEncodeIsIdentity) {
  trace::CenTraceReport r;
  r.endpoint = net::Ipv4Address(10, 0, 9, 1);
  r.test_domain = "www.blocked.example";
  r.control_domain = "www.example.org";
  r.protocol = trace::ProbeProtocol::kHttps;
  r.blocked = true;
  r.blocking_type = trace::BlockingType::kRst;
  r.location = trace::BlockingLocation::kOnPathToEndpoint;
  r.placement = trace::DevicePlacement::kInPath;
  r.blocking_hop_ttl = 4;
  r.blocking_hop_ip = net::Ipv4Address(10, 0, 4, 1);
  r.blocking_as = geo::AsInfo{9198, "JSC-KAZAKHTELECOM", "KZ"};
  r.endpoint_hop_distance = 7;
  r.ttl_copy_detected = true;
  r.blockpage_vendor = "Cisco";
  net::Packet inj;
  inj.ip.ttl = 61;
  inj.ip.identification = 0x1234;
  inj.ip.flags = 2;
  inj.tcp.window = 8192;
  inj.tcp.flags = 0x14;
  r.injected_packet = inj;
  r.confidence.overall = 0.875;
  r.confidence.hop_confidence = {1.0, 0.5};
  r.degradation.mode = trace::DegradationMode::kTomography;
  r.degradation.icmp_answer_rate = 0.125;
  r.degradation.dead_channel_sweeps = 3;
  r.degradation.vantage_count = 3;
  r.degradation.tomography_observations = 24;
  r.degradation.tomography_solved = true;
  trace::BlamedLink link;
  link.ip_a = net::Ipv4Address(10, 0, 3, 1);
  link.ip_b = net::Ipv4Address(10, 0, 4, 1);
  link.confidence = 0.5;
  link.blocked_paths = 9;
  link.clean_paths = 0;
  r.degradation.candidate_links.push_back(link);
  r.control_path = {net::Ipv4Address(10, 0, 1, 1), std::nullopt};
  trace::QuoteDiff qd;
  qd.router = net::Ipv4Address(10, 0, 1, 1);
  qd.parse_ok = true;
  qd.tos_changed = true;
  r.quote_diffs.push_back(qd);

  const std::string encoded = report::to_json(r);
  auto decoded = report::trace_report_from_json(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(report::to_json(*decoded), encoded);
}

TEST(JsonReport, FuzzDecodeEncodeIsIdentity) {
  fuzz::CenFuzzReport r;
  r.endpoint = net::Ipv4Address(10, 0, 9, 1);
  r.test_domain = "t";
  r.control_domain = "c";
  r.http_baseline_blocked = true;
  r.total_requests = 123;
  r.skipped_strategies = 2;
  fuzz::FuzzMeasurement m;
  m.strategy = "Get Word Alt.";
  m.permutation = "PATCH";
  m.outcome = fuzz::FuzzOutcome::kSuccessful;
  m.circumvented = true;
  r.measurements.push_back(m);

  const std::string encoded = report::to_json(r);
  auto decoded = report::fuzz_report_from_json(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(report::to_json(*decoded), encoded);
}

TEST(JsonReport, ProbeDecodeEncodeIsIdentity) {
  probe::DeviceProbeReport r;
  r.ip = net::Ipv4Address(10, 0, 4, 1);
  r.open_ports = {22, 443};
  probe::BannerGrab grab;
  grab.ip = r.ip;
  grab.port = 22;
  grab.protocol = "ssh";
  grab.banner = "SSH-2.0-Cisco-1.25";
  grab.complete = true;
  grab.attempts = 2;
  r.banners.push_back(grab);
  r.vendor = "Cisco";
  censor::StackFingerprint stack;
  stack.synack_ttl = 64;
  stack.synack_window = 29200;
  stack.mss = 1460;
  stack.sack_permitted = true;
  stack.rst_ttl = 255;
  r.stack = stack;

  const std::string encoded = report::to_json(r);
  auto decoded = report::probe_report_from_json(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(report::to_json(*decoded), encoded);
}

TEST(JsonReport, DecoderRejectsWrongTool) {
  probe::DeviceProbeReport pr;
  pr.ip = net::Ipv4Address(10, 0, 4, 1);
  const std::string probe_doc = report::to_json(pr);
  EXPECT_FALSE(report::trace_report_from_json(probe_doc).has_value());
  EXPECT_FALSE(report::fuzz_report_from_json(probe_doc).has_value());
  EXPECT_FALSE(report::probe_report_from_json("{\"tool\":\"centrace\"}").has_value());
  EXPECT_FALSE(report::trace_report_from_json("not json").has_value());
}

TEST(JsonEscape, ControlBoundariesAndInvalidUtf8) {
  // 0x7f (DEL) is a control character and must be escaped like 0x00–0x1f.
  EXPECT_EQ(json_escape(std::string_view("\x7f", 1)), "\\u007f");
  EXPECT_EQ(json_escape(std::string_view("\x1f", 1)), "\\u001f");
  // An invalid UTF-8 byte is replaced with U+FFFD, one replacement per
  // rejected byte, so the emitted document is always valid UTF-8.
  EXPECT_EQ(json_escape(std::string_view("\xff", 1)), "\xef\xbf\xbd");
  EXPECT_EQ(json_escape(std::string_view("a\xc3(z", 4)), "a\xef\xbf\xbd(z");
  // Overlong encoding of '/' (0xc0 0xaf) is invalid: two replacements.
  EXPECT_EQ(json_escape(std::string_view("\xc0\xaf", 2)),
            "\xef\xbf\xbd\xef\xbf\xbd");
  // The escaped form, quoted, is a valid JSON document.
  EXPECT_TRUE(json_valid("\"" + json_escape(std::string_view("\xff\x7f\x01", 3)) + "\""));
}

TEST(JsonParse, SurrogatePairs) {
  // U+1F600 as an escaped surrogate pair decodes to its 4-byte UTF-8 form.
  auto doc = json_parse(R"("\ud83d\ude00")");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->string, "\xf0\x9f\x98\x80");
  // Lone surrogates, either half, are rejected.
  EXPECT_EQ(json_parse(R"("\ud83d")"), nullptr);
  EXPECT_EQ(json_parse(R"("\ude00")"), nullptr);
  EXPECT_FALSE(json_valid(R"("\ud83dxx")"));
}

TEST(JsonParse, NestingDepthBoundary) {
  // Regression: the depth guard ran before the child level was counted, so
  // the effective limit was 65, not the documented 64. Lock the boundary:
  // 64 open brackets parse, 65 are rejected — by validator and parser both.
  const std::string at_limit = std::string(64, '[') + std::string(64, ']');
  const std::string over_limit = std::string(65, '[') + std::string(65, ']');
  EXPECT_TRUE(json_valid(at_limit));
  EXPECT_NE(json_parse(at_limit), nullptr);
  EXPECT_FALSE(json_valid(over_limit));
  EXPECT_EQ(json_parse(over_limit), nullptr);
  // Mixed object/array nesting hits the same bound.
  std::string mixed;
  for (int i = 0; i < 32; ++i) mixed += "{\"k\":[";
  mixed += "null";
  for (int i = 0; i < 32; ++i) mixed += "]}";
  EXPECT_TRUE(json_valid(mixed));  // 64 levels
  EXPECT_FALSE(json_valid("[" + mixed + "]"));  // 65 levels
}

TEST(JsonParse, IntClampAtExtremes) {
  auto doc = json_parse(R"({"big":1e300,"small":-1e300,"fit":42})");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(saturate_cast<int>(doc->find("big")->number), std::numeric_limits<int>::max());
  EXPECT_EQ(saturate_cast<int>(doc->find("small")->number), std::numeric_limits<int>::min());
  EXPECT_EQ(saturate_cast<int>(doc->find("fit")->number), 42);
}

// ------------------------------------------------ decoder corpus pin --

namespace {

/// Whether a member the decoders narrow to an integer holds a number
/// outside that integer's range. Such documents stay out of the pinned
/// corpus; ReportDecoders.IntegerMembersSaturate covers them.
bool has_out_of_range_int(const JsonValue& v) {
  struct Range {
    std::string_view key;
    double lo, hi;
  };
  constexpr double kInt = 2147483647.0, kU8 = 255.0, kU16 = 65535.0;
  static const Range kRanges[] = {
      {"blocking_hop_ttl", -kInt - 1, kInt}, {"endpoint_hop_distance", -kInt - 1, kInt},
      {"loss_recovered_probes", -kInt - 1, kInt}, {"dead_channel_sweeps", -kInt - 1, kInt},
      {"vantage_count", -kInt - 1, kInt}, {"tomography_observations", -kInt - 1, kInt},
      {"blocked_paths", -kInt - 1, kInt}, {"clean_paths", -kInt - 1, kInt},
      {"attempts", -kInt - 1, kInt}, {"endpoint_distance", -kInt - 1, kInt},
      {"insertion_ttl", -kInt - 1, kInt}, {"test_blocked_votes", -kInt - 1, kInt},
      {"control_clean_votes", -kInt - 1, kInt}, {"repetitions", -kInt - 1, kInt},
      {"asn", 0, 4294967295.0}, {"ip_ttl", 0, kU8}, {"ip_flags", 0, kU8},
      {"ip_tos", 0, kU8}, {"tcp_flags", 0, kU8}, {"synack_ttl", 0, kU8},
      {"rst_ttl", 0, kU8}, {"ip_id", 0, kU16}, {"tcp_window", 0, kU16},
      {"port", 0, kU16}, {"synack_window", 0, kU16}, {"mss", 0, kU16},
      {"total_requests", 0, 1e15}, {"skipped_strategies", 0, 1e15},
      {"total_probes_sent", 0, 1e15},
  };
  auto outside = [](const JsonValue& n, double lo, double hi) {
    return n.is_number() && !(n.number >= lo && n.number <= hi);
  };
  for (const JsonValue& e : v.array) {
    if (has_out_of_range_int(e)) return true;
  }
  for (const auto& [key, m] : v.object) {
    if (key == "open_ports") {
      for (const JsonValue& e : m.array) {
        if (outside(e, 0, kU16)) return true;
      }
    }
    for (const Range& r : kRanges) {
      if (key == r.key && outside(m, r.lo, r.hi)) return true;
    }
    if (has_out_of_range_int(m)) return true;
  }
  return false;
}

/// Random byte-level edits: bit flip, byte rewrite, truncation,
/// insertion, deletion.
std::string mutated(std::string s, Rng& rng, int budget) {
  for (int i = 0; i < budget; ++i) {
    if (s.empty()) {
      s.push_back(static_cast<char>(rng.uniform(256)));
      continue;
    }
    const std::size_t at = rng.index(s.size());
    switch (rng.uniform(5)) {
      case 0: s[at] = static_cast<char>(s[at] ^ (1 << rng.uniform(8))); break;
      case 1: s[at] = static_cast<char>(rng.uniform(256)); break;
      case 2: s.resize(at + 1); break;
      case 3: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), static_cast<char>(rng.uniform(256))); break;
      case 4: s.erase(at, 1); break;
    }
  }
  return s;
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

/// Hand-written edge documents around `base` (an encoded report object).
/// Every member in `members` is spliced in first (so it shadows the
/// original) and last (so the original wins), with every generic value
/// and its own specific ones; then escaped keys, unknown members, sweep
/// arrays, the nesting bound, bad strings in skipped members and trailing
/// bytes.
std::vector<std::string> edge_docs(
    const std::string& base,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& members) {
  static const std::vector<std::string> kValues = {
      "true", "false", "null", "0", "-1", "3", "2.5", "-0", "1e300", "4e9",
      R"("x")", R"("")", R"("10.1.2.3")", R"("1.2.3")",
      R"("a\"b\\cé😀\n")", "[]", "{}", R"([1,"a",null,{"k":1}])",
      R"({"a":1,"a":2})"};
  std::vector<std::string> out;
  auto splice = [&](const std::string& member) {
    out.push_back("{" + member + "," + base.substr(1));
    out.push_back(base.substr(0, base.size() - 1) + "," + member + "}");
  };
  for (const auto& [key, specific] : members) {
    for (const std::string& v : kValues) splice("\"" + key + "\":" + v);
    for (const std::string& v : specific) splice("\"" + key + "\":" + v);
    // Escaped keys match on their decoded text: in place, and as a
    // shadowing duplicate.
    char esc[8];
    std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned char>(key[0]));
    const std::string escaped = "\"" + std::string(esc) + key.substr(1) + "\"";
    if (const std::size_t at = base.find("\"" + key + "\":"); at != std::string::npos) {
      out.push_back(base.substr(0, at) + escaped + base.substr(at + key.size() + 2));
    }
    if (!specific.empty()) splice(escaped + ":" + specific.front());
  }
  for (const std::string& member : {
           std::string(R"("zzz":{"a":[1,2,{"b":"c"}],"a":null})"),
           std::string(R"("control_sweeps":[{"domain":"d","terminating_ttl":3,)"
                       R"("terminating_response":"RST","endpoint_reached":false,"hops":)"
                       R"([{"ttl":1,"response":"ICMP","icmp_router":"10.0.0.1",)"
                       R"("tcp_and_icmp":false},{"ttl":2,"response":"none",)"
                       R"("icmp_router":null,"tcp_and_icmp":true}]}])"),
           std::string(R"("test_sweeps":[])"),
           "\"zzz\":" + nested_arrays(63),  // depth 64: accepted
           "\"zzz\":" + nested_arrays(64),  // depth 65: rejected
           std::string("\"zzz\":\"\xff\""), std::string("\"zzz\":\"\xc0\xaf\""),
           std::string("\"zzz\":\"\xed\xa0\x80\""), std::string("\"zzz\":\"\xf4\x90\x80\x80\""),
           std::string(R"("zzz":"\ud800")"), std::string(R"("zzz":"\udc00x")"),
           std::string(R"("zzz":"\ud800A")"), std::string(R"("zzz":"😀")"),
           std::string("\"zzz\":\"tab\there\""), std::string(R"("zzz":"\q")"),
           std::string(R"("zzz":01)"), std::string(R"("zzz":1.)"), std::string(R"("zzz":-)"),
           std::string(R"("zzz":tru)"), std::string(R"("zzz":[1,])"),
           std::string(R"("zzz":{"a":1,})"), std::string(R"("zzz" 1)"),
       }) {
    splice(member);
  }
  for (const std::string& tail : {std::string(" "), std::string("\n\t\r"), std::string("x"),
                                  std::string("{}"), std::string(1, '\0'), std::string(","),
                                  std::string("]")}) {
    out.push_back(base + tail);
  }
  out.push_back(" \n" + base);
  out.push_back(base.substr(0, base.size() - 1));
  out.push_back("[" + base + "]");
  return out;
}

struct CorpusPin {
  std::uint64_t digest = 0;
  std::size_t docs = 0;
  std::size_t accepted = 0;
};

/// Decode every document of a fixed-seed corpus (random reports, their
/// byte mutations and the edge list) and digest each outcome: nullopt,
/// or the re-encoded report.
template <typename Gen, typename Decode, typename Encode>
CorpusPin pin_corpus(
    std::uint64_t seed, Gen random_report, Decode decode, Encode encode,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& members) {
  Rng rng(seed);
  std::vector<std::string> docs;
  for (int i = 0; i < 16; ++i) {
    const std::string doc = encode(random_report(rng));
    docs.push_back(doc);
    for (int m = 0; m < 24; ++m) docs.push_back(mutated(doc, rng, 1 + m % 4));
  }
  for (std::string& doc : edge_docs(docs.front(), members)) docs.push_back(std::move(doc));
  FingerprintBuilder fp;
  CorpusPin pin;
  for (const std::string& doc : docs) {
    if (auto dom = json_parse(doc); dom != nullptr && has_out_of_range_int(*dom)) continue;
    ++pin.docs;
    const auto decoded = decode(doc);
    fp.mix(decoded.has_value());
    if (decoded) {
      ++pin.accepted;
      fp.mix(std::string_view(encode(*decoded)));
    }
  }
  pin.digest = fp.digest();
  return pin;
}

void expect_pin(const char* what, const CorpusPin& got, std::uint64_t digest,
                std::size_t docs, std::size_t accepted) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx", static_cast<unsigned long long>(got.digest));
  EXPECT_EQ(got.digest, digest) << what << " digest " << hex;
  EXPECT_EQ(got.docs, docs) << what;
  EXPECT_EQ(got.accepted, accepted) << what;
}

std::string quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }

}  // namespace

TEST(ReportDecoders, PinnedCorpus) {
  using Members = std::vector<std::pair<std::string, std::vector<std::string>>>;
  const std::vector<std::string> tools = {R"("centrace")", R"("cenfuzz")", R"("cenprobe")",
                                          R"("cenambig")"};
  const std::string mode =
      quoted(trace::degradation_mode_name(trace::DegradationMode::kTomography));
  const Members trace_members = {
      {"tool", tools},
      {"endpoint", {R"("10.9.8.7")", R"("256.1.1.1")", R"(" 1.2.3.4")"}},
      {"test_domain", {R"("test")"}},
      {"control_domain", {}},
      {"protocol", {quoted(trace::probe_protocol_name(trace::ProbeProtocol::kDnsUdp)),
                    R"("nope")"}},
      {"blocked", {}},
      {"blocking_type", {quoted(trace::blocking_type_name(trace::BlockingType::kRst)),
                         R"("nope")"}},
      {"location",
       {quoted(trace::blocking_location_name(trace::BlockingLocation::kNotBlocked)),
        R"("nope")"}},
      {"placement", {quoted(trace::device_placement_name(trace::DevicePlacement::kInPath)),
                     R"("nope")"}},
      {"blocking_hop_ttl", {"7.9", "-3"}},
      {"blocking_hop_ip", {R"("10.0.4.1")"}},
      {"blocking_as", {R"({"asn":5,"name":"n","country":"KZ","asn":6,"name":7})",
                       R"({"asn":"x"})"}},
      {"endpoint_hop_distance", {}},
      {"ttl_copy_detected", {}},
      {"blockpage_vendor", {R"("Cisco")"}},
      {"injected_packet",
       {R"({"ip_ttl":9,"ip_ttl":1,"ip_id":"x","tcp_window":5.5,"ip_flags":1,"ip_tos":4,"tcp_flags":18})",
        R"({"ip_id":7})"}},
      {"confidence",
       {R"({"overall":0.5,"overall":0.25,"hop_confidence":[1,"x",null,0.5],"path_churn":true})",
        R"({"loss_recovered_probes":2,"icmp_rate_limited":1,"zzz":)" + nested_arrays(62) + "}",
        R"({"ttl_agreement":0.5,"zzz":)" + nested_arrays(63) + "}"}},
      {"degradation",
       {"{\"mode\":" + mode +
            R"(,"candidate_links":[{"ip_a":"1.2.3.4","confidence":0.5,"ip_a":"5.6.7.8"},7]})",
        "{\"mode\":" + mode + R"(,"vantage_count":3,"mode":"nope","tomography_solved":true})",
        R"({"mode":"nope"})", R"({"icmp_answer_rate":0.5})"}},
      {"control_path", {R"(["1.2.3.4",null,5,"bad",{}])"}},
      {"quote_diffs",
       {R"([{"router":"1.1.1.1","ports_match":false,"parse_ok":true,"parse_ok":false},3])"}},
  };
  const Members probe_members = {
      {"tool", tools},
      {"ip", {R"("10.9.8.7")", R"("10.0.0")"}},
      {"open_ports", {R"([22,"x",443.7,null,-0.5])"}},
      {"banners",
       {R"([{"port":22,"protocol":"ssh","banner":"b","complete":false,"attempts":2,"port":23},"x"])",
        R"([{}])"}},
      {"vendor", {R"("Cisco")"}},
      {"stack", {R"({"synack_ttl":9,"mss":"x","sack_permitted":true,"synack_ttl":8})",
                 R"({})"}},
  };
  const std::string outcome = quoted(fuzz::fuzz_outcome_name(fuzz::FuzzOutcome::kSuccessful));
  const Members fuzz_members = {
      {"tool", tools},
      {"endpoint", {R"("10.9.8.7")"}},
      {"test_domain", {}},
      {"control_domain", {R"("c")"}},
      {"http_baseline_blocked", {}},
      {"tls_baseline_blocked", {}},
      {"total_requests", {"12.7"}},
      {"skipped_strategies", {"2"}},
      {"measurements",
       {"[{\"strategy\":\"s\",\"outcome\":" + outcome +
            R"(,"https":true,"https":false,"permutation":"p","circumvented":true},5])",
        R"([{"strategy":"s"}])", R"([{"outcome":"nope"}])",
        "[{\"outcome\":" + outcome + ",\"outcome\":\"nope\",\"baseline_failed\":true}]"}},
  };
  const std::string rst = quoted(ambig::probe_outcome_name(ambig::ProbeOutcome::kRst));
  const Members ambig_members = {
      {"tool", tools},
      {"endpoint", {R"("10.9.8.7")"}},
      {"test_domain", {}},
      {"control_domain", {}},
      {"baseline_blocked", {}},
      {"endpoint_distance", {"4.5"}},
      {"insertion_ttl", {"3"}},
      {"total_probes_sent", {"17"}},
      {"probes",
       {"[{\"name\":\"p\",\"test_outcome\":" + rst + ",\"control_outcome\":" + rst +
            R"(,"testable":false,"repetitions":3,"test_blocked_votes":2,"control_clean_votes":1,"discrepant":true},1])",
        "[{\"name\":\"p\",\"test_outcome\":" + rst + "}]",
        R"([{"test_outcome":"nope","control_outcome":"rst"}])"}},
  };

  const CorpusPin trace_pin = pin_corpus(
      0x7e57c0de01, check::random_trace_report,
      [](const std::string& t) { return report::trace_report_from_json(t); },
      [](const trace::CenTraceReport& r) { return report::to_json(r, false); }, trace_members);
  const CorpusPin probe_pin = pin_corpus(
      0x7e57c0de02, check::random_probe_report,
      [](const std::string& t) { return report::probe_report_from_json(t); },
      [](const probe::DeviceProbeReport& r) { return report::to_json(r); }, probe_members);
  const CorpusPin fuzz_pin = pin_corpus(
      0x7e57c0de03, check::random_fuzz_report,
      [](const std::string& t) { return report::fuzz_report_from_json(t); },
      [](const fuzz::CenFuzzReport& r) { return report::to_json(r); }, fuzz_members);
  const CorpusPin ambig_pin = pin_corpus(
      0x7e57c0de04, check::random_ambig_report,
      [](const std::string& t) { return report::ambig_report_from_json(t); },
      [](const ambig::AmbigReport& r) { return report::to_json(r); }, ambig_members);
  expect_pin("trace", trace_pin, 0x5f66f8cc20824f12ULL, 1324, 820);
  expect_pin("probe", probe_pin, 0xf5868e1f121904d6ULL, 720, 294);
  expect_pin("fuzz", fuzz_pin, 0x700d69eae2e399c4ULL, 833, 405);
  expect_pin("ambig", ambig_pin, 0x54cef090f4aac25fULL, 827, 405);
}

namespace {

std::string random_text(Rng& rng) {
  static const char* const kText[] = {"", "KZ", "10.0.0.7", "d1.example", "HTTP",
                                      "RST", "Fortinet", "a\"b\\c", "é😀\n\t"};
  return kText[rng.index(std::size(kText))];
}

report::EndpointEpochState random_epoch_state(Rng& rng) {
  report::EndpointEpochState s;
  s.site = random_text(rng);
  s.endpoint = random_text(rng);
  s.domain = random_text(rng);
  s.protocol = random_text(rng);
  s.blocked = rng.chance(0.5);
  s.blocking_type = random_text(rng);
  s.vendor = random_text(rng);
  s.blocking_hop_ttl = static_cast<int>(rng.range(-1, 40));
  s.endpoint_hop_distance = static_cast<int>(rng.range(-1, 40));
  return s;
}

report::EpochDiff random_epoch_diff(Rng& rng) {
  report::EpochDiff d;
  d.epoch_from = static_cast<int>(rng.range(-2, 9));
  d.epoch_to = static_cast<int>(rng.range(-2, 9));
  for (std::uint64_t n = rng.uniform(4); n > 0; --n) {
    d.newly_blocked.push_back(random_epoch_state(rng));
  }
  for (std::uint64_t n = rng.uniform(3); n > 0; --n) {
    d.newly_unblocked.push_back(random_epoch_state(rng));
  }
  for (std::uint64_t n = rng.uniform(3); n > 0; --n) {
    d.vendor_changes.push_back({random_text(rng), random_text(rng), random_text(rng)});
  }
  for (std::uint64_t n = rng.uniform(3); n > 0; --n) {
    d.location_moves.push_back({random_text(rng), static_cast<int>(rng.range(-1, 30)),
                                static_cast<int>(rng.range(-1, 30))});
  }
  return d;
}

}  // namespace

TEST(ReportDecoders, PinnedEpochDiffCorpus) {
  using Members = std::vector<std::pair<std::string, std::vector<std::string>>>;
  const Members members = {
      {"epoch_from", {"7.9", "2147483648", "-1e300"}},
      {"epoch_to", {"-4"}},
      {"newly_blocked",
       {"[5]", "[{}]", "[{},null]", R"([{"site":5,"blocked":"x","vendor":null}])",
        R"([{"site":"a","site":"b","blocking_hop_ttl":7.9,"blocking_hop_ttl":3,"zzz":[1]}])",
        R"([{"endpoint":"e","protocol":"p","blocked":true,"blocking_type":"t",)"
        R"("endpoint_hop_distance":-9,"domain":"d"},"x"])"}},
      {"newly_unblocked", {R"([{"vendor":"v"},[]])", R"({"a":1})", R"([{"blocked":1}])"}},
      {"vendor_changes",
       {R"([{"key":"k","from":1,"to":"t","key":"x"}])", R"(["x"])", "[{}]", "[{},{}]"}},
      {"location_moves",
       {R"([{"key":"k","from_ttl":"x","to_ttl":1e300,"from_ttl":2}])", "[3]", "[{}]",
        R"([{"to_ttl":4.5},true])"}},
  };
  const CorpusPin pin = pin_corpus(
      0x7e57c0de05, random_epoch_diff,
      [](const std::string& t) { return report::epoch_diff_from_json(t); },
      [](const report::EpochDiff& d) { return report::to_json(d); }, members);
  expect_pin("epoch_diff", pin, 0xd70b0143b8abe740ULL, 742, 279);
}

// ------------------------------------------------------ enum wire names --

namespace {

/// Every name in `names` differs from the others, and value `e` written
/// into a report decodes back as `e` (`round_trip` encodes and decodes).
template <typename E, typename RoundTrip>
void expect_names_decode(const char* what, std::span<const std::string_view> names,
                         RoundTrip round_trip) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(names[i], names[j]) << what;
    const E e = static_cast<E>(i);
    EXPECT_EQ(round_trip(e), e) << what << " " << names[i];
  }
}

}  // namespace

TEST(ReportDecoders, EnumNamesAreDistinctAndDecode) {
  // Writes e into one member of a default trace report and decodes it back.
  auto trace_member = [](auto member) {
    return [member](auto e) {
      trace::CenTraceReport r;
      r.*member = e;
      return report::trace_report_from_json(report::to_json(r)).value().*member;
    };
  };
  expect_names_decode<trace::ProbeProtocol>("protocol", trace::kProbeProtocolNames,
                                            trace_member(&trace::CenTraceReport::protocol));
  expect_names_decode<trace::BlockingType>("blocking_type", trace::kBlockingTypeNames,
                                           trace_member(&trace::CenTraceReport::blocking_type));
  expect_names_decode<trace::BlockingLocation>("location", trace::kBlockingLocationNames,
                                               trace_member(&trace::CenTraceReport::location));
  expect_names_decode<trace::DevicePlacement>("placement", trace::kDevicePlacementNames,
                                              trace_member(&trace::CenTraceReport::placement));
  expect_names_decode<trace::DegradationMode>(
      "degradation.mode", trace::kDegradationModeNames, [](trace::DegradationMode e) {
        trace::CenTraceReport r;
        r.degradation.mode = e;
        return report::trace_report_from_json(report::to_json(r)).value().degradation.mode;
      });
  expect_names_decode<fuzz::FuzzOutcome>(
      "outcome", fuzz::kFuzzOutcomeNames, [](fuzz::FuzzOutcome e) {
        fuzz::CenFuzzReport r;
        r.measurements.emplace_back().outcome = e;
        return report::fuzz_report_from_json(report::to_json(r)).value().measurements.at(0).outcome;
      });
  for (auto member : {&ambig::AmbigProbeResult::test_outcome,
                      &ambig::AmbigProbeResult::control_outcome}) {
    expect_names_decode<ambig::ProbeOutcome>(
        "ambig outcome", ambig::kProbeOutcomeNames, [member](ambig::ProbeOutcome e) {
          ambig::AmbigReport r;
          r.probes.emplace_back().*member = e;
          return report::ambig_report_from_json(report::to_json(r)).value().probes.at(0).*member;
        });
  }
}

// ------------------------------------------- integer member saturation --

namespace {

constexpr const char* kExtremes[] = {"-1", "1e300", "-1e300"};

/// What an integer member of type T decodes to for each of kExtremes: -1
/// where T holds it, else the nearest bound.
template <typename T>
std::array<T, 3> saturated() {
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  return {std::is_signed_v<T> ? static_cast<T>(-1) : T{0}, hi, lo};
}

/// `get(v)` decodes a document carrying the extreme `v` in one integer
/// member and returns that member's decoded value.
template <typename T, typename Get>
void expect_saturates(const char* field, Get get) {
  const std::array<T, 3> want = saturated<T>();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(get(kExtremes[i]), want[i]) << field << " = " << kExtremes[i];
  }
}

std::string shadowed(const std::string& doc, const std::string& member) {
  return "{" + member + "," + doc.substr(1);
}

}  // namespace

TEST(ReportDecoders, IntegerMembersSaturate) {
  const std::string trace_doc = report::to_json(trace::CenTraceReport{}, false);
  auto trace_with = [&](const std::string& member) {
    return report::trace_report_from_json(shadowed(trace_doc, member)).value();
  };
  auto v = [](const char* key, const std::string& value) {
    return "\"" + std::string(key) + "\":" + value;
  };
  expect_saturates<std::uint32_t>("asn", [&](std::string x) {
    return trace_with(v("blocking_as", "{" + v("asn", x) + "}")).blocking_as->asn;
  });
  expect_saturates<int>("blocking_hop_ttl", [&](std::string x) {
    return trace_with(v("blocking_hop_ttl", x)).blocking_hop_ttl;
  });
  expect_saturates<std::uint8_t>("ip_ttl", [&](std::string x) {
    return trace_with(v("injected_packet", "{" + v("ip_ttl", x) + "}")).injected_packet->ip.ttl;
  });
  expect_saturates<std::uint16_t>("tcp_window", [&](std::string x) {
    return trace_with(v("injected_packet", "{" + v("tcp_window", x) + "}"))
        .injected_packet->tcp.window;
  });
  expect_saturates<int>("loss_recovered_probes", [&](std::string x) {
    return trace_with(v("confidence", "{" + v("loss_recovered_probes", x) + "}"))
        .confidence.loss_recovered_probes;
  });

  const std::string probe_doc = R"({"tool":"cenprobe","ip":"10.0.0.1"})";
  auto probe_with = [&](const std::string& member) {
    return report::probe_report_from_json(shadowed(probe_doc, member)).value();
  };
  expect_saturates<std::uint16_t>("open_ports", [&](std::string x) {
    return probe_with(v("open_ports", "[" + x + "]")).open_ports.at(0);
  });
  expect_saturates<std::uint16_t>("port", [&](std::string x) {
    return probe_with(v("banners", "[{" + v("port", x) + "}]")).banners.at(0).port;
  });
  expect_saturates<int>("attempts", [&](std::string x) {
    return probe_with(v("banners", "[{" + v("attempts", x) + "}]")).banners.at(0).attempts;
  });
  expect_saturates<std::uint8_t>("synack_ttl", [&](std::string x) {
    return probe_with(v("stack", "{" + v("synack_ttl", x) + "}")).stack->synack_ttl;
  });
  expect_saturates<std::uint16_t>("mss", [&](std::string x) {
    return probe_with(v("stack", "{" + v("mss", x) + "}")).stack->mss;
  });

  const std::string fuzz_doc = R"({"tool":"cenfuzz","endpoint":"10.0.0.1"})";
  auto fuzz_with = [&](const std::string& member) {
    return report::fuzz_report_from_json(shadowed(fuzz_doc, member)).value();
  };
  expect_saturates<std::size_t>("total_requests", [&](std::string x) {
    return fuzz_with(v("total_requests", x)).total_requests;
  });
  expect_saturates<std::size_t>("skipped_strategies", [&](std::string x) {
    return fuzz_with(v("skipped_strategies", x)).skipped_strategies;
  });

  const std::string ambig_doc = R"({"tool":"cenambig","endpoint":"10.0.0.1"})";
  auto ambig_with = [&](const std::string& member) {
    return report::ambig_report_from_json(shadowed(ambig_doc, member)).value();
  };
  auto probe_result = [&](const char* key, const std::string& x) {
    return ambig_with(v("probes", R"([{"test_outcome":"rst","control_outcome":"rst",)" +
                                      v(key, x) + "}]"))
        .probes.at(0);
  };
  expect_saturates<int>("endpoint_distance", [&](std::string x) {
    return ambig_with(v("endpoint_distance", x)).endpoint_distance;
  });
  expect_saturates<int>("insertion_ttl", [&](std::string x) {
    return ambig_with(v("insertion_ttl", x)).insertion_ttl;
  });
  expect_saturates<std::size_t>("total_probes_sent", [&](std::string x) {
    return ambig_with(v("total_probes_sent", x)).total_probes_sent;
  });
  expect_saturates<int>("test_blocked_votes", [&](std::string x) {
    return probe_result("test_blocked_votes", x).test_blocked_votes;
  });
  expect_saturates<int>("control_clean_votes", [&](std::string x) {
    return probe_result("control_clean_votes", x).control_clean_votes;
  });
  expect_saturates<int>("repetitions", [&](std::string x) {
    return probe_result("repetitions", x).repetitions;
  });
}

TEST(JsonParse, SaturateCastBounds) {
  EXPECT_EQ(saturate_cast<int>(2.9), 2);
  EXPECT_EQ(saturate_cast<int>(-2.9), -2);
  EXPECT_EQ(saturate_cast<std::uint8_t>(255.5), 255);
  EXPECT_EQ(saturate_cast<std::uint8_t>(-0.5), 0);
  EXPECT_EQ(saturate_cast<std::uint64_t>(1.8446744073709552e19),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(saturate_cast<std::int64_t>(-1e300), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(saturate_cast<int>(std::numeric_limits<double>::infinity()),
            std::numeric_limits<int>::max());
}

// The report wire format, described once: one field table per report
// object, and one walker that both encodes and decodes by it.
//
// A table lists an object's members in canonical key order. Each entry
// names the key, the member and its Rule; an enum entry names the enum's
// wire-name array instead and is required. The kind of a member (bool,
// double, saturating integer, string, address, enum, nested or optional
// object, array) follows from its C++ type. write() emits the members
// in table order, and that is the key order the campaign cache splices
// byte for byte. read() decodes in one pass through JsonReader, with no DOM:
//   - keys match on their decoded text, and the first of duplicate keys
//     wins: a later duplicate is skipped like an unknown member;
//   - unknown members (sweep arrays included) are validated and skipped;
//   - a member of the wrong type keeps its fallback, the value it holds
//     when the read starts; integers saturate at their type's range;
//   - an unknown enum name, or a required member that is missing or holds
//     no valid value, rejects the document;
//   - an array keeps the elements that read as its element type and drops
//     the others (a kStrict list rejects the document instead); an
//     optional element (a control-path hop) is always kept;
//   - an optional object starts from initial<T>() when present.
// The walker is a fold over the table at compile time: no map, no
// function object and no allocation per member.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "centrace/centrace.hpp"
#include "core/json.hpp"
#include "report/epoch_diff.hpp"

namespace cen::report::wire {

/// What a document may do with a member.
enum class Rule : std::uint8_t {
  kOptional,  // may be absent; a value of the wrong type keeps the fallback
  kRequired,  // must be present with a valid value
  kStrict,    // may be absent; a list must be an array of valid elements
};

/// One member of an object: its key, how to reach it from the object, an
/// enum's wire names (indexed by value) and its rule.
template <typename Get>
struct Field {
  std::string_view key;
  Get get;
  std::span<const std::string_view> names;
  Rule rule;
};

/// The required member naming the tool that wrote the document.
struct Tag {
  std::string_view key;
  std::string_view value;
  static constexpr Rule rule = Rule::kRequired;
};

template <typename T, typename M>
constexpr Field<M T::*> field(std::string_view key, M T::*member,
                              Rule rule = Rule::kOptional) {
  return {key, member, {}, rule};
}

/// An enum member, always required: its wire names, indexed by value.
template <typename T, typename E, std::size_t N>
constexpr Field<E T::*> field(std::string_view key, E T::*member,
                              const std::string_view (&names)[N]) {
  return {key, member, names, Rule::kRequired};
}

/// A member of a member: the header fields of a packet.
template <typename T, typename M, typename V>
constexpr auto field(std::string_view key, M T::*outer, V M::*inner) {
  auto get = [=](auto& obj) -> auto& { return obj.*outer.*inner; };
  return Field<decltype(get)>{key, get, {}, Rule::kOptional};
}

/// The field table of T, a std::tuple of Fields and Tags. Types without
/// one are not objects on the wire.
template <typename T>
inline constexpr auto kFields = nullptr;

template <typename T>
concept Object = !std::is_null_pointer_v<std::remove_cvref_t<decltype(kFields<T>)>>;

template <typename Table>
constexpr bool distinct_keys(const Table& table) {
  std::array keys = std::apply([](const auto&... f) { return std::array{f.key...}; }, table);
  std::ranges::sort(keys);
  return std::ranges::adjacent_find(keys) == keys.end();
}

template <Object T>
constexpr const auto& table_of() {
  static_assert(std::tuple_size_v<std::remove_cvref_t<decltype(kFields<T>)>> <= 64,
                "a table has at most 64 fields, one bit of read()'s seen mask each");
  static_assert(distinct_keys(kFields<T>), "a table spells each key once");
  return kFields<T>;
}

/// The value an optional object decodes into before its members are read.
template <typename T>
T initial() {
  return T{};
}

template <typename V>
concept Optional = std::is_same_v<V, std::optional<typename V::value_type>>;
template <typename V>
concept Vector = std::is_same_v<V, std::vector<typename V::value_type>>;

// ------------------------------------------------------------- encoding --

template <typename V>
void write(JsonWriter& w, const V& v);

template <typename T>
void write_member(JsonWriter& w, const T&, const Tag& tag) {
  w.key(tag.key).value(tag.value);
}

template <typename T, typename Get>
void write_member(JsonWriter& w, const T& obj, const Field<Get>& f) {
  const auto& v = std::invoke(f.get, obj);
  w.key(f.key);
  if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>) {
    w.value(enum_name(f.names, v));
  } else {
    write(w, v);
  }
}

/// The members of `obj`, in table order, into an object the caller opened.
template <Object T>
void write_members(JsonWriter& w, const T& obj) {
  std::apply([&](const auto&... f) { (write_member(w, obj, f), ...); }, table_of<T>());
}

template <typename V>
void write(JsonWriter& w, const V& v) {
  if constexpr (std::is_same_v<V, bool> || std::is_same_v<V, double> ||
                std::is_same_v<V, std::string>) {
    w.value(v);
  } else if constexpr (std::is_signed_v<V>) {
    w.value(static_cast<std::int64_t>(v));
  } else if constexpr (std::is_unsigned_v<V>) {
    w.value(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<V, net::Ipv4Address>) {
    w.value(v.str());
  } else if constexpr (Optional<V>) {
    if (v) {
      write(w, *v);
    } else {
      w.null();
    }
  } else if constexpr (Vector<V>) {
    w.begin_array();
    for (const auto& x : v) write(w, x);
    w.end_array();
  } else {
    w.begin_object();
    write_members(w, v);
    w.end_object();
  }
}

template <Object T>
std::string encode(const T& obj) {
  JsonWriter w;
  write(w, obj);
  return w.str();
}

// ------------------------------------------------------------- decoding --

/// Read one value into `out`; whether it was valid for out's kind. An
/// invalid value leaves `out` at its fallback.
template <typename V>
bool read(JsonReader& in, V& out);

/// Any miss fails the reader.
template <typename E>
bool read_enum(JsonReader& in, E& out, std::span<const std::string_view> names) {
  std::string_view name;
  in.read_string(name);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      out = static_cast<E>(i);
      return true;
    }
  }
  in.fail();
  return false;
}

template <typename T>
bool read_member(JsonReader& in, T&, const Tag& tag) {
  std::string_view s;
  if (in.read_string(s) && s == tag.value) return true;
  in.fail();
  return false;
}

template <typename T, typename Get>
bool read_member(JsonReader& in, T& obj, const Field<Get>& f) {
  auto& v = std::invoke(f.get, obj);
  if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>) {
    return read_enum(in, v, f.names);
  } else {
    return read(in, v);
  }
}

/// Valid when an object holding every required member.
template <Object T>
bool read_object(JsonReader& in, T& obj) {
  constexpr std::size_t n = std::tuple_size_v<std::remove_cvref_t<decltype(table_of<T>())>>;
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    constexpr std::uint64_t required =
        ((std::uint64_t{std::get<I>(kFields<T>).rule == Rule::kRequired} << I) | ...);
    std::uint64_t seen = 0;
    std::uint64_t valid = 0;
    auto member = [&]<std::size_t J>(std::integral_constant<std::size_t, J>) {
      constexpr const auto& f = std::get<J>(kFields<T>);
      if ((seen >> J & 1) != 0) return;
      seen |= std::uint64_t{1} << J;
      if (read_member(in, obj, f)) {
        valid |= std::uint64_t{1} << J;
      } else if constexpr (f.rule == Rule::kStrict) {
        in.fail();
      }
    };
    const bool object = in.object([&](std::string_view key) {
      (void)((key == std::get<I>(kFields<T>).key &&
              (member(std::integral_constant<std::size_t, I>{}), true)) ||
             ...);
    });
    if (!object) return false;
    if ((valid & required) == required) return true;
    in.fail();
    return false;
  }(std::make_index_sequence<n>{});
}

template <typename V>
bool read(JsonReader& in, V& out) {
  if constexpr (std::is_same_v<V, bool>) {
    return in.read_bool(out);
  } else if constexpr (std::is_same_v<V, double>) {
    return in.read_number(out);
  } else if constexpr (std::is_integral_v<V>) {
    double d = 0;
    if (!in.read_number(d)) return false;
    out = saturate_cast<V>(d);
    return true;
  } else if constexpr (std::is_same_v<V, std::string>) {
    std::string_view s;
    if (!in.read_string(s)) return false;
    out = s;
    return true;
  } else if constexpr (std::is_same_v<V, net::Ipv4Address>) {
    // Valid when a string that parses as an address.
    std::string_view s;
    if (!in.read_string(s)) return false;
    const std::optional<net::Ipv4Address> ip = net::Ipv4Address::parse(s);
    if (ip) out = *ip;
    return ip.has_value();
  } else if constexpr (Optional<V>) {
    // Always valid: a value that is not a valid element reads as nullopt.
    typename V::value_type x = initial<typename V::value_type>();
    if (read(in, x)) out = std::move(x);
    return true;
  } else if constexpr (Vector<V>) {
    // Valid when an array whose every element was valid; the invalid
    // elements are dropped.
    bool every = true;
    const bool array = in.array([&] {
      typename V::value_type x{};
      if (read(in, x)) {
        out.push_back(std::move(x));
      } else {
        every = false;
      }
    });
    return array && every;
  } else {
    return read_object(in, out);
  }
}

/// One document holding one T; nullopt when it is not valid JSON, not
/// an object, or misses a required member.
template <Object T>
std::optional<T> decode(std::string_view text) {
  JsonReader in(text);
  T obj;
  if (!read(in, obj) || !in.finish()) return std::nullopt;
  return obj;
}

// --------------------------------------------------------------- tables --

template <> inline constexpr auto kFields<geo::AsInfo> = std::tuple{
    field("asn", &geo::AsInfo::asn),
    field("name", &geo::AsInfo::name),
    field("country", &geo::AsInfo::country),
};

/// The Table 3 clustering features of the injected packet, so that a cached
/// record decodes into a report that clusters identically.
template <> inline constexpr auto kFields<net::Packet> = std::tuple{
    field("ip_ttl", &net::Packet::ip, &net::Ipv4Header::ttl),
    field("ip_id", &net::Packet::ip, &net::Ipv4Header::identification),
    field("ip_flags", &net::Packet::ip, &net::Ipv4Header::flags),
    field("ip_tos", &net::Packet::ip, &net::Ipv4Header::tos),
    field("tcp_window", &net::Packet::tcp, &net::TcpHeader::window),
    field("tcp_flags", &net::Packet::tcp, &net::TcpHeader::flags),
};

/// Header fields a document omits read as 0, not as Packet's defaults.
template <> inline net::Packet initial<net::Packet>() {
  net::Packet p;
  p.ip.ttl = 0;
  p.ip.flags = 0;
  p.tcp.window = 0;
  return p;
}

template <> inline constexpr auto kFields<trace::TraceConfidence> = std::tuple{
    field("overall", &trace::TraceConfidence::overall),
    field("response_agreement", &trace::TraceConfidence::response_agreement),
    field("ttl_agreement", &trace::TraceConfidence::ttl_agreement),
    field("control_path_stability", &trace::TraceConfidence::control_path_stability),
    field("icmp_rate_limited", &trace::TraceConfidence::icmp_rate_limited),
    field("path_churn", &trace::TraceConfidence::path_churn),
    field("loss_recovered_probes", &trace::TraceConfidence::loss_recovered_probes),
    field("hop_confidence", &trace::TraceConfidence::hop_confidence),
};

template <> inline constexpr auto kFields<trace::BlamedLink> = std::tuple{
    field("ip_a", &trace::BlamedLink::ip_a),
    field("ip_b", &trace::BlamedLink::ip_b),
    field("confidence", &trace::BlamedLink::confidence),
    field("blocked_paths", &trace::BlamedLink::blocked_paths),
    field("clean_paths", &trace::BlamedLink::clean_paths),
};

template <> inline constexpr auto kFields<trace::DegradationInfo> = std::tuple{
    field("mode", &trace::DegradationInfo::mode, trace::kDegradationModeNames),
    field("icmp_answer_rate", &trace::DegradationInfo::icmp_answer_rate),
    field("dead_channel_sweeps", &trace::DegradationInfo::dead_channel_sweeps),
    field("vantage_count", &trace::DegradationInfo::vantage_count),
    field("tomography_observations", &trace::DegradationInfo::tomography_observations),
    field("tomography_solved", &trace::DegradationInfo::tomography_solved),
    field("candidate_links", &trace::DegradationInfo::candidate_links),
};

template <> inline constexpr auto kFields<trace::QuoteDiff> = std::tuple{
    field("router", &trace::QuoteDiff::router),
    field("parse_ok", &trace::QuoteDiff::parse_ok),
    field("rfc792_minimal", &trace::QuoteDiff::rfc792_minimal),
    field("full_tcp_quoted", &trace::QuoteDiff::full_tcp_quoted),
    field("tos_changed", &trace::QuoteDiff::tos_changed),
    field("ip_flags_changed", &trace::QuoteDiff::ip_flags_changed),
    field("ports_match", &trace::QuoteDiff::ports_match),
};

/// Sweep logs are written on request and never decoded: a decoder skips
/// them as unknown members.
template <> inline constexpr auto kFields<trace::HopObservation> = std::tuple{
    field("ttl", &trace::HopObservation::ttl),
    field("response", &trace::HopObservation::response, trace::kProbeResponseNames),
    field("icmp_router", &trace::HopObservation::icmp_router),
    field("tcp_and_icmp", &trace::HopObservation::tcp_and_icmp),
};

template <> inline constexpr auto kFields<trace::SingleTrace> = std::tuple{
    field("domain", &trace::SingleTrace::domain),
    field("terminating_ttl", &trace::SingleTrace::terminating_ttl),
    field("terminating_response", &trace::SingleTrace::terminating_response,
          trace::kProbeResponseNames),
    field("endpoint_reached", &trace::SingleTrace::endpoint_reached),
    field("hops", &trace::SingleTrace::hops),
};

// The tool reports share their head: "tool", the measurement subject
// ("endpoint" / "ip"), then "test_domain" / "control_domain", then the
// tool's own fields.

template <> inline constexpr auto kFields<trace::CenTraceReport> = std::tuple{
    Tag{"tool", "centrace"},
    field("endpoint", &trace::CenTraceReport::endpoint, Rule::kRequired),
    field("test_domain", &trace::CenTraceReport::test_domain),
    field("control_domain", &trace::CenTraceReport::control_domain),
    field("protocol", &trace::CenTraceReport::protocol, trace::kProbeProtocolNames),
    field("blocked", &trace::CenTraceReport::blocked),
    field("blocking_type", &trace::CenTraceReport::blocking_type, trace::kBlockingTypeNames),
    field("location", &trace::CenTraceReport::location, trace::kBlockingLocationNames),
    field("placement", &trace::CenTraceReport::placement, trace::kDevicePlacementNames),
    field("blocking_hop_ttl", &trace::CenTraceReport::blocking_hop_ttl),
    field("blocking_hop_ip", &trace::CenTraceReport::blocking_hop_ip),
    field("blocking_as", &trace::CenTraceReport::blocking_as),
    field("endpoint_hop_distance", &trace::CenTraceReport::endpoint_hop_distance),
    field("ttl_copy_detected", &trace::CenTraceReport::ttl_copy_detected),
    field("blockpage_vendor", &trace::CenTraceReport::blockpage_vendor),
    field("injected_packet", &trace::CenTraceReport::injected_packet),
    field("confidence", &trace::CenTraceReport::confidence),
    field("degradation", &trace::CenTraceReport::degradation),
    field("control_path", &trace::CenTraceReport::control_path),
    field("quote_diffs", &trace::CenTraceReport::quote_diffs),
};

template <> inline constexpr auto kFields<fuzz::FuzzMeasurement> = std::tuple{
    field("strategy", &fuzz::FuzzMeasurement::strategy),
    field("permutation", &fuzz::FuzzMeasurement::permutation),
    field("https", &fuzz::FuzzMeasurement::https),
    field("outcome", &fuzz::FuzzMeasurement::outcome, fuzz::kFuzzOutcomeNames),
    field("circumvented", &fuzz::FuzzMeasurement::circumvented),
    field("baseline_failed", &fuzz::FuzzMeasurement::baseline_failed),
};

template <> inline constexpr auto kFields<fuzz::CenFuzzReport> = std::tuple{
    Tag{"tool", "cenfuzz"},
    field("endpoint", &fuzz::CenFuzzReport::endpoint, Rule::kRequired),
    field("test_domain", &fuzz::CenFuzzReport::test_domain),
    field("control_domain", &fuzz::CenFuzzReport::control_domain),
    field("http_baseline_blocked", &fuzz::CenFuzzReport::http_baseline_blocked),
    field("tls_baseline_blocked", &fuzz::CenFuzzReport::tls_baseline_blocked),
    field("total_requests", &fuzz::CenFuzzReport::total_requests),
    field("skipped_strategies", &fuzz::CenFuzzReport::skipped_strategies),
    field("measurements", &fuzz::CenFuzzReport::measurements),
};

template <> inline constexpr auto kFields<ambig::AmbigProbeResult> = std::tuple{
    field("name", &ambig::AmbigProbeResult::name),
    field("test_outcome", &ambig::AmbigProbeResult::test_outcome, ambig::kProbeOutcomeNames),
    field("control_outcome", &ambig::AmbigProbeResult::control_outcome,
          ambig::kProbeOutcomeNames),
    field("test_blocked_votes", &ambig::AmbigProbeResult::test_blocked_votes),
    field("control_clean_votes", &ambig::AmbigProbeResult::control_clean_votes),
    field("repetitions", &ambig::AmbigProbeResult::repetitions),
    field("discrepant", &ambig::AmbigProbeResult::discrepant),
    field("testable", &ambig::AmbigProbeResult::testable),
};

template <> inline constexpr auto kFields<ambig::AmbigReport> = std::tuple{
    Tag{"tool", "cenambig"},
    field("endpoint", &ambig::AmbigReport::endpoint, Rule::kRequired),
    field("test_domain", &ambig::AmbigReport::test_domain),
    field("control_domain", &ambig::AmbigReport::control_domain),
    field("baseline_blocked", &ambig::AmbigReport::baseline_blocked),
    field("endpoint_distance", &ambig::AmbigReport::endpoint_distance),
    field("insertion_ttl", &ambig::AmbigReport::insertion_ttl),
    field("total_probes_sent", &ambig::AmbigReport::total_probes_sent),
    field("probes", &ambig::AmbigReport::probes),
};

/// Banner grabs carry no address of their own: the decoder fills `ip`
/// from the report's.
template <> inline constexpr auto kFields<probe::BannerGrab> = std::tuple{
    field("port", &probe::BannerGrab::port),
    field("protocol", &probe::BannerGrab::protocol),
    field("banner", &probe::BannerGrab::banner),
    field("complete", &probe::BannerGrab::complete),
    field("attempts", &probe::BannerGrab::attempts),
};

template <> inline constexpr auto kFields<censor::StackFingerprint> = std::tuple{
    field("synack_ttl", &censor::StackFingerprint::synack_ttl),
    field("synack_window", &censor::StackFingerprint::synack_window),
    field("mss", &censor::StackFingerprint::mss),
    field("sack_permitted", &censor::StackFingerprint::sack_permitted),
    field("rst_ttl", &censor::StackFingerprint::rst_ttl),
};

/// Window, MSS and SACK a document omits read as 0/false, not as
/// StackFingerprint's defaults.
template <> inline censor::StackFingerprint initial<censor::StackFingerprint>() {
  return {.synack_window = 0, .mss = 0, .sack_permitted = false};
}

template <> inline constexpr auto kFields<probe::DeviceProbeReport> = std::tuple{
    Tag{"tool", "cenprobe"},
    field("ip", &probe::DeviceProbeReport::ip, Rule::kRequired),
    field("open_ports", &probe::DeviceProbeReport::open_ports),
    field("banners", &probe::DeviceProbeReport::banners),
    field("vendor", &probe::DeviceProbeReport::vendor),
    field("stack", &probe::DeviceProbeReport::stack),
};

template <> inline constexpr auto kFields<EndpointEpochState> = std::tuple{
    field("site", &EndpointEpochState::site),
    field("endpoint", &EndpointEpochState::endpoint),
    field("domain", &EndpointEpochState::domain),
    field("protocol", &EndpointEpochState::protocol),
    field("blocked", &EndpointEpochState::blocked),
    field("blocking_type", &EndpointEpochState::blocking_type),
    field("vendor", &EndpointEpochState::vendor),
    field("blocking_hop_ttl", &EndpointEpochState::blocking_hop_ttl),
    field("endpoint_hop_distance", &EndpointEpochState::endpoint_hop_distance),
};

template <> inline constexpr auto kFields<VendorChange> = std::tuple{
    field("key", &VendorChange::key),
    field("from", &VendorChange::from),
    field("to", &VendorChange::to),
};

template <> inline constexpr auto kFields<LocationMove> = std::tuple{
    field("key", &LocationMove::key),
    field("from_ttl", &LocationMove::from_ttl),
    field("to_ttl", &LocationMove::to_ttl),
};

template <> inline constexpr auto kFields<EpochDiff> = std::tuple{
    field("epoch_from", &EpochDiff::epoch_from),
    field("epoch_to", &EpochDiff::epoch_to),
    field("newly_blocked", &EpochDiff::newly_blocked, Rule::kStrict),
    field("newly_unblocked", &EpochDiff::newly_unblocked, Rule::kStrict),
    field("vendor_changes", &EpochDiff::vendor_changes, Rule::kStrict),
    field("location_moves", &EpochDiff::location_moves, Rule::kStrict),
};

}  // namespace cen::report::wire

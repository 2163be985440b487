// The wire formats of the reports and the configs, described once: one
// field table per object, and one walker that both encodes and decodes by
// it.
//
// A table lists an object's members in canonical key order. Each entry
// names the key, the member and its Rule; an enum entry (or a list of
// enums) also names the enum's wire-name array. The kind of a member
// (bool, double, saturating integer, string, address, enum, nested or
// optional object, array) follows from its C++ type. A Section entry is a
// nested JSON object whose members belong to the enclosing object (the
// campaign's "trace" object mixes CenTraceOptions and campaign members).
// write() emits the members in table order, and that is the key order the
// campaign cache splices byte for byte. read() decodes in one pass through
// JsonReader, with no DOM:
//   - keys match on their decoded text, and the first of duplicate keys
//     wins: a later duplicate is skipped like an unknown member;
//   - unknown members (sweep arrays included) are validated and skipped;
//   - a member of the wrong type keeps its fallback, the value it holds
//     when the read starts; integers saturate at their type's range;
//   - an unknown enum name, or a required member that is missing or holds
//     no valid value, rejects the document; so does a kStrict member that
//     is present with no valid value;
//   - an array keeps the elements that read as its element type and drops
//     the others, and replaces the fallback's elements; an optional
//     element (a control-path hop) is always kept;
//   - an optional object starts from initial<T>() when present.
// A kStrict optional is left out when it holds nothing, and a member
// declared beside() an optional is written only when that optional
// holds a value. Reports and configs differ only in their numbers (see
// JsonNumbers). A rejected document's reason names the member path that
// rejected it (JsonReader::why()).
// The walker is a fold over the table at compile time: no map, no
// function object and no allocation per member.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

#include "campaign/spec.hpp"
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
  kStrict,    // may be absent; when present, must hold a valid value
};

/// An enum's wire names, indexed by value; empty for every other kind.
using Names = std::span<const std::string_view>;

/// One member of an object: its key, how to reach it from the object, an
/// enum's wire names, its rule, and the optional member it is written
/// beside (nullptr: always written).
template <typename Get, typename With = std::nullptr_t>
struct Field {
  std::string_view key;
  Get get;
  Names names;
  Rule rule;
  With with = nullptr;
};

/// The required member naming the tool that wrote the document.
struct Tag {
  std::string_view key;
  std::string_view value;
  static constexpr Rule rule = Rule::kRequired;
};

/// A nested object of the enclosing object's own members, listed by the
/// table kFields<S> of the tag type S.
template <typename S>
struct Section {
  using Table = S;
  std::string_view key;
  static constexpr Rule rule = Rule::kOptional;
};

template <typename T, typename M>
constexpr Field<M T::*> field(std::string_view key, M T::*member,
                              Rule rule = Rule::kOptional) {
  return {key, member, {}, rule};
}

/// An enum member, or a list of enums: its wire names, indexed by value.
template <typename T, typename E, std::size_t N>
constexpr Field<E T::*> field(std::string_view key, E T::*member,
                              const std::string_view (&names)[N],
                              Rule rule = Rule::kRequired) {
  return {key, member, names, rule};
}

/// A member of a member: the header fields of a packet, the campaign's
/// tracer options.
template <typename T, typename M, typename V>
constexpr auto field(std::string_view key, M T::*outer, V M::*inner, Names names = {},
                     Rule rule = Rule::kOptional) {
  auto get = [=](auto& obj) -> auto& { return obj.*outer.*inner; };
  return Field<decltype(get)>{key, get, names, rule};
}

/// A member written only when the optional member `with` holds a value.
template <typename T, typename M, typename O>
constexpr Field<M T::*, std::optional<O> T::*> beside(std::string_view key, M T::*member,
                                                       std::optional<O> T::*with) {
  return {key, member, {}, Rule::kOptional, with};
}

/// The field table of T, a std::tuple of Fields, Tags and Sections. Types
/// without one are not objects on the wire.
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
void write(JsonWriter& w, const V& v, Names names = {});

template <typename T>
void write_member(JsonWriter& w, const T&, const Tag& tag) {
  w.key(tag.key).value(tag.value);
}

template <typename T, typename Get, typename With>
void write_member(JsonWriter& w, const T& obj, const Field<Get, With>& f) {
  const auto& v = std::invoke(f.get, obj);
  if constexpr (!std::is_null_pointer_v<With>) {
    if (!std::invoke(f.with, obj)) return;
  }
  if constexpr (Optional<std::remove_cvref_t<decltype(v)>>) {
    if (f.rule == Rule::kStrict && !v) return;
  }
  w.key(f.key);
  write(w, v, f.names);
}

/// The members of `obj` in the table of S, in table order, into an object
/// the caller opened.
template <typename S, typename T>
void write_members(JsonWriter& w, const T& obj) {
  std::apply([&](const auto&... f) { (write_member(w, obj, f), ...); }, table_of<S>());
}

template <typename T, typename S>
void write_member(JsonWriter& w, const T& obj, const Section<S>& s) {
  w.key(s.key).begin_object();
  write_members<S>(w, obj);
  w.end_object();
}

template <typename V>
void write(JsonWriter& w, const V& v, Names names) {
  if constexpr (std::is_enum_v<V>) {
    w.value(enum_name(names, v));
  } else if constexpr (std::is_same_v<V, bool> || std::is_same_v<V, double> ||
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
      write(w, *v, names);
    } else {
      w.null();
    }
  } else if constexpr (Vector<V>) {
    w.begin_array();
    for (const auto& x : v) write(w, x, names);
    w.end_array();
  } else {
    w.begin_object();
    write_members<V>(w, v);
    w.end_object();
  }
}

template <Object T>
std::string encode(const T& obj, JsonNumbers numbers = JsonNumbers::kRounded) {
  JsonWriter w(numbers);
  write(w, obj);
  return w.str();  // a copy, sized to fit: cached records keep it
}

// ------------------------------------------------------------- decoding --

/// Read one value into `out`; whether it was valid for out's kind. An
/// invalid value leaves `out` at its fallback.
template <typename V>
bool read(JsonReader& in, V& out, Names names = {});

/// A string that names no value fails the reader.
template <typename E>
bool read_enum(JsonReader& in, E& out, Names names) {
  std::string_view name;
  if (!in.read_string(name)) return false;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      out = static_cast<E>(i);
      return true;
    }
  }
  in.fail("unknown name \"" + std::string(name) + "\"");
  return false;
}

template <typename T>
bool read_member(JsonReader& in, T&, const Tag& tag) {
  std::string_view s;
  if (in.read_string(s) && s == tag.value) return true;
  in.fail();
  return false;
}

template <typename T, typename Get, typename With>
bool read_member(JsonReader& in, T& obj, const Field<Get, With>& f) {
  return read(in, std::invoke(f.get, obj), f.names);
}

template <typename S, typename T>
bool read_object(JsonReader& in, T& obj);

template <typename T, typename S>
bool read_member(JsonReader& in, T& obj, const Section<S>&) {
  return read_object<S>(in, obj);
}

/// Valid when an object holding every required member of S's table, read
/// into `obj`.
template <typename S, typename T>
bool read_object(JsonReader& in, T& obj) {
  constexpr const auto& table = table_of<S>();
  constexpr std::size_t n = std::tuple_size_v<std::remove_cvref_t<decltype(table)>>;
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    constexpr std::uint64_t required =
        ((std::uint64_t{std::get<I>(table).rule == Rule::kRequired} << I) | ...);
    std::uint64_t seen = 0;
    std::uint64_t valid = 0;
    auto member = [&]<std::size_t J>(std::integral_constant<std::size_t, J>) {
      constexpr const auto& f = std::get<J>(table);
      if ((seen >> J & 1) != 0) return;
      seen |= std::uint64_t{1} << J;
      if (read_member(in, obj, f)) {
        valid |= std::uint64_t{1} << J;
        return;
      }
      if constexpr (f.rule == Rule::kStrict) in.fail("not a valid value");
      in.blame(f.key);
    };
    const bool object = in.object([&](std::string_view key) {
      (void)((key == std::get<I>(table).key &&
              (member(std::integral_constant<std::size_t, I>{}), true)) ||
             ...);
    });
    if (!object) return false;
    if ((valid & required) == required) return true;
    constexpr std::array keys = {std::get<I>(table).key...};
    in.fail("missing, or not a valid value");
    in.blame(keys[std::countr_zero(required & ~valid)]);
    return false;
  }(std::make_index_sequence<n>{});
}

template <typename V>
bool read(JsonReader& in, V& out, Names names) {
  if constexpr (std::is_enum_v<V>) {
    return read_enum(in, out, names);
  } else if constexpr (std::is_same_v<V, bool>) {
    return in.read_bool(out);
  } else if constexpr (std::is_same_v<V, double> || std::is_same_v<V, std::uint64_t>) {
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
    // Valid when the value is a valid element; out is left alone otherwise.
    typename V::value_type x = initial<typename V::value_type>();
    if (!read(in, x, names)) return false;
    out = std::move(x);
    return true;
  } else if constexpr (Vector<V>) {
    // Valid when an array whose every element was valid; the invalid
    // elements are dropped, an invalid optional one is kept as nullopt.
    using E = typename V::value_type;
    bool every = true;
    V xs;
    const bool array = in.array([&] {
      E x{};
      if (read(in, x, names) || Optional<E>) {
        xs.push_back(std::move(x));
      } else {
        every = false;
      }
    });
    if (array) out = std::move(xs);
    return array && every;
  } else {
    return read_object<V>(in, out);
  }
}

/// One document holding one T; nullopt when it is not valid JSON, not an
/// object, or rejected by T's table, with the reason in `error`.
template <Object T>
std::optional<T> decode(std::string_view text, JsonNumbers numbers = JsonNumbers::kRounded,
                        std::string* error = nullptr) {
  JsonReader in(text, numbers);
  T obj;
  const bool object = read(in, obj);
  const bool finished = in.finish();
  if (object && finished) return obj;
  if (error != nullptr) {
    *error = !in.why().empty() ? in.why()
             : finished        ? "not a JSON object"
                               : "not valid JSON";
  }
  return std::nullopt;
}

// ------------------------------------------------------------ key paths --

template <typename V>
concept OptionalObject = Optional<V> && Object<typename V::value_type>;

/// fn(member, names) for the member of `obj` at a dotted key path through
/// S's config table and those nested in it: "seed", "trace.repetitions"
/// (a Section), "evolution.seed" (an optional object, made from initial<T>()
/// when empty). False when the path names no member. With a null `obj`, fn
/// gets a null pointer of the member's type: a path checks at compile time.
template <typename S, typename T, typename Fn>
constexpr bool at_path(T* obj, std::string_view path, Fn&& fn) {
  const std::size_t dot = std::min(path.find('.'), path.size());
  const std::string_view rest = path.substr(std::min(dot + 1, path.size()));
  auto member = [&]<typename F>(const F& f) -> bool {
    if constexpr (requires { typename F::Table; }) {
      return at_path<typename F::Table>(obj, rest, fn);  // a Section
    } else {
      using V = std::remove_cvref_t<decltype(std::invoke(f.get, *obj))>;
      V* v = obj == nullptr ? nullptr : &std::invoke(f.get, *obj);
      if (rest.empty()) return fn(v, f.names);
      if constexpr (OptionalObject<V>) {
        using E = typename V::value_type;
        return at_path<E>(v == nullptr ? nullptr : *v ? &**v : &v->emplace(initial<E>()), rest, fn);
      } else if constexpr (Object<V>) {
        return at_path<V>(v, rest, fn);
      }
      return false;
    }
  };
  return std::apply(
      [&](const auto&... f) { return ((f.key == path.substr(0, dot) && member(f)) || ...); },
      table_of<S>());
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

// ------------------------------------------------------- config tables --
// A config reloads to itself: its codecs pass JsonNumbers::kExact. The
// range checks a table cannot state (batch_size >= 1, say) run after
// decoding, in each config's from_json; the campaign's run again after
// `cen` flags set members by key path (campaign::check_spec).

template <> inline constexpr auto kFields<worldgen::CountryRegimeSpec> = std::tuple{
    field("code", &worldgen::CountryRegimeSpec::code, Rule::kRequired),
    field("weight", &worldgen::CountryRegimeSpec::weight),
    field("censored", &worldgen::CountryRegimeSpec::censored),
    field("vendors", &worldgen::CountryRegimeSpec::vendors, Rule::kStrict),
    field("deploy_coverage", &worldgen::CountryRegimeSpec::deploy_coverage),
    field("on_path_share", &worldgen::CountryRegimeSpec::on_path_share),
};

template <> inline constexpr auto kFields<worldgen::WorldSpec> = std::tuple{
    field("name", &worldgen::WorldSpec::name),
    field("transit_ases", &worldgen::WorldSpec::transit_ases),
    field("regional_ases", &worldgen::WorldSpec::regional_ases),
    field("stub_ases", &worldgen::WorldSpec::stub_ases),
    field("routers_per_transit", &worldgen::WorldSpec::routers_per_transit),
    field("routers_per_regional", &worldgen::WorldSpec::routers_per_regional),
    field("routers_per_stub", &worldgen::WorldSpec::routers_per_stub),
    field("endpoints", &worldgen::WorldSpec::endpoints),
    field("endpoint_zipf", &worldgen::WorldSpec::endpoint_zipf),
    field("profile_templates", &worldgen::WorldSpec::profile_templates),
    field("http_test_domains", &worldgen::WorldSpec::http_test_domains, Rule::kStrict),
    field("https_test_domains", &worldgen::WorldSpec::https_test_domains, Rule::kStrict),
    field("control_domain", &worldgen::WorldSpec::control_domain),
    field("countries", &worldgen::WorldSpec::countries, Rule::kStrict),
};

template <> inline constexpr auto kFields<longit::EvolutionPlan> = std::tuple{
    field("seed", &longit::EvolutionPlan::seed),
    field("start_epoch", &longit::EvolutionPlan::start_epoch),
    field("period", &longit::EvolutionPlan::period),
    field("rule_add_prob", &longit::EvolutionPlan::rule_add_prob),
    field("rule_remove_prob", &longit::EvolutionPlan::rule_remove_prob),
    field("vendor_upgrade_prob", &longit::EvolutionPlan::vendor_upgrade_prob),
    field("blockpage_swap_prob", &longit::EvolutionPlan::blockpage_swap_prob),
    field("coverage_drift_prob", &longit::EvolutionPlan::coverage_drift_prob),
    field("rule_pool", &longit::EvolutionPlan::rule_pool, Rule::kStrict),
};

template <> inline constexpr auto kFields<campaign::StageToggles> = std::tuple{
    field("trace", &campaign::StageToggles::trace),
    field("probe", &campaign::StageToggles::probe),
    field("fuzz", &campaign::StageToggles::fuzz),
    field("ambig", &campaign::StageToggles::ambig),
    field("cluster", &campaign::StageToggles::cluster),
};

/// The campaign's "trace" object: the tracer's options beside the
/// campaign's tomography members.
struct CampaignTrace;

template <> inline constexpr auto kFields<CampaignTrace> = std::tuple{
    field("max_ttl", &campaign::CampaignSpec::trace, &trace::CenTraceOptions::max_ttl),
    field("retries", &campaign::CampaignSpec::trace, &trace::CenTraceOptions::retries),
    field("repetitions", &campaign::CampaignSpec::trace, &trace::CenTraceOptions::repetitions),
    field("timeout_run_stop", &campaign::CampaignSpec::trace,
          &trace::CenTraceOptions::timeout_run_stop),
    field("protocol", &campaign::CampaignSpec::trace, &trace::CenTraceOptions::protocol,
          trace::kProbeProtocolNames, Rule::kStrict),
    field("retry_backoff_ms", &campaign::CampaignSpec::trace,
          &trace::CenTraceOptions::retry_backoff),
    field("adaptive_max_retries", &campaign::CampaignSpec::trace,
          &trace::CenTraceOptions::adaptive_max_retries),
    field("silent_channel_abort", &campaign::CampaignSpec::trace,
          &trace::CenTraceOptions::silent_channel_abort),
    field("tomography", &campaign::CampaignSpec::trace_tomography),
    field("vantages", &campaign::CampaignSpec::trace_vantages),
};

template <> inline constexpr auto kFields<fuzz::CenFuzzOptions> = std::tuple{
    field("retries", &fuzz::CenFuzzOptions::retries),
    field("run_http", &fuzz::CenFuzzOptions::run_http),
    field("run_tls", &fuzz::CenFuzzOptions::run_tls),
    field("baseline_attempts", &fuzz::CenFuzzOptions::baseline_attempts),
};

template <> inline constexpr auto kFields<ambig::AmbigOptions> = std::tuple{
    field("repetitions", &ambig::AmbigOptions::repetitions),
    field("retries", &ambig::AmbigOptions::retries),
    field("wait_after_blocked_ms", &ambig::AmbigOptions::wait_after_blocked),
    field("wait_after_ok_ms", &ambig::AmbigOptions::wait_after_ok),
    field("retry_backoff_ms", &ambig::AmbigOptions::retry_backoff),
    field("max_distance_ttl", &ambig::AmbigOptions::max_distance_ttl),
    field("order_salt", &ambig::AmbigOptions::order_salt),
};

/// The default link and node profiles of a fault plan; per-link and
/// per-node overrides are not configurable from a spec.
template <> inline constexpr auto kFields<sim::FaultPlan> = std::tuple{
    field("transient_loss", &sim::FaultPlan::transient_loss),
    field("link_loss", &sim::FaultPlan::default_link, &sim::FaultProfile::loss),
    field("link_duplicate", &sim::FaultPlan::default_link, &sim::FaultProfile::duplicate),
    field("link_reorder", &sim::FaultPlan::default_link, &sim::FaultProfile::reorder),
    field("link_truncate", &sim::FaultPlan::default_link, &sim::FaultProfile::truncate),
    field("link_corrupt", &sim::FaultPlan::default_link, &sim::FaultProfile::corrupt),
    field("icmp_blackhole", &sim::FaultPlan::default_node,
          &sim::NodeFaultProfile::icmp_blackhole),
    field("icmp_rate_per_sec", &sim::FaultPlan::default_node,
          &sim::NodeFaultProfile::icmp_rate_per_sec),
    field("icmp_burst", &sim::FaultPlan::default_node, &sim::NodeFaultProfile::icmp_burst),
    field("route_flap_period_ms", &sim::FaultPlan::route_flap_period),
    field("mgmt_drop", &sim::FaultPlan::mgmt_drop),
    field("banner_truncate", &sim::FaultPlan::banner_truncate),
};

/// A campaign's countries and a world's regimes are written expanded
/// (effective_countries()), so the caller hands in a copy that holds them.
template <> inline constexpr auto kFields<campaign::CampaignSpec> = std::tuple{
    field("name", &campaign::CampaignSpec::name),
    field("countries", &campaign::CampaignSpec::countries, scenario::kCountryCodes,
          Rule::kStrict),
    field("scale", &campaign::CampaignSpec::scale, scenario::kScaleNames, Rule::kOptional),
    field("seed", &campaign::CampaignSpec::seed),
    field("max_endpoints", &campaign::CampaignSpec::max_endpoints),
    field("max_domains", &campaign::CampaignSpec::max_domains),
    field("fuzz_max_endpoints", &campaign::CampaignSpec::fuzz_max_endpoints),
    field("ambig_max_endpoints", &campaign::CampaignSpec::ambig_max_endpoints),
    field("batch_size", &campaign::CampaignSpec::batch_size),
    field("http_domains", &campaign::CampaignSpec::http_domains, Rule::kStrict),
    field("https_domains", &campaign::CampaignSpec::https_domains, Rule::kStrict),
    field("stages", &campaign::CampaignSpec::stages),
    Section<CampaignTrace>{"trace"},
    field("fuzz", &campaign::CampaignSpec::fuzz),
    field("ambig", &campaign::CampaignSpec::ambig),
    field("faults", &campaign::CampaignSpec::faults, Rule::kStrict),
    field("world", &campaign::CampaignSpec::world, Rule::kStrict),
    field("evolution", &campaign::CampaignSpec::evolution, Rule::kStrict),
    beside("evolution_epoch", &campaign::CampaignSpec::evolution_epoch,
           &campaign::CampaignSpec::evolution),
};

}  // namespace cen::report::wire

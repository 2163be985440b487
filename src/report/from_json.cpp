#include "report/from_json.hpp"

#include <cstdint>

#include "core/json.hpp"

namespace cen::report {

namespace {

/// Matches one member's key against the names a decoder tests, in the
/// order it tests them (at most 64 per object: one bit of `seen` each).
/// The first member with a given name wins: a later duplicate matches
/// nothing, and JsonReader skips it like an unknown one.
class Key {
 public:
  Key(std::string_view key, std::uint64_t& seen) : key_(key), seen_(seen) {}

  bool operator()(std::string_view name) {
    const std::uint64_t bit = std::uint64_t{1} << next_++;
    if (key_ != name || (seen_ & bit) != 0) return false;
    seen_ |= bit;
    return true;
  }

 private:
  std::string_view key_;
  std::uint64_t& seen_;
  int next_ = 0;
};

/// Read an object, handing each member to `on_member(is)`; false when the
/// value is not an object (it is skipped) or on error.
template <typename OnMember>
bool members(JsonReader& in, OnMember&& on_member) {
  std::uint64_t seen = 0;
  return in.object([&](std::string_view key) {
    Key is(key, seen);
    on_member(is);
  });
}

// Typed member reads. A value of another type leaves the field at its
// fallback, which is the value it holds when the read starts.
void read(JsonReader& in, bool& out) { in.read_bool(out); }
void read(JsonReader& in, double& out) { in.read_number(out); }

template <typename Int>
void read(JsonReader& in, Int& out) {
  double d = 0;
  if (in.read_number(d)) out = saturate_cast<Int>(d);
}

void read(JsonReader& in, std::string& out) {
  std::string_view s;
  if (in.read_string(s)) out = s;
}

void read(JsonReader& in, std::optional<std::string>& out) {
  std::string_view s;
  if (in.read_string(s)) out = std::string(s);
}

/// An address member: nullopt when absent, not a string or unparseable.
void read(JsonReader& in, std::optional<net::Ipv4Address>& out) {
  std::string_view s;
  if (in.read_string(s)) out = net::Ipv4Address::parse(s);
}

/// An address member that keeps its fallback unless it parses.
void read(JsonReader& in, net::Ipv4Address& out) {
  std::optional<net::Ipv4Address> ip;
  read(in, ip);
  if (ip) out = *ip;
}

/// Parse an enum by matching its wire name over the value range
/// [0, count) — the name tables are the single source of truth, so the
/// decoders can never drift from the emitters. A miss, or a value that is
/// not a string, rejects the document.
template <typename E, typename NameFn>
void read_enum(JsonReader& in, std::optional<E>& out, int count, NameFn name_of) {
  std::string_view name;
  in.read_string(name);
  for (int i = 0; i < count; ++i) {
    if (name_of(static_cast<E>(i)) == name) {
      out = static_cast<E>(i);
      return;
    }
  }
  in.fail();
}

/// The "tool" member: a string naming `tool`, or the document is rejected.
bool read_tool(JsonReader& in, std::string_view tool) {
  std::string_view s;
  if (in.read_string(s) && s == tool) return true;
  in.fail();
  return false;
}

void read_confidence(JsonReader& in, trace::TraceConfidence& c) {
  members(in, [&](Key& is) {
    if (is("overall")) read(in, c.overall);
    else if (is("response_agreement")) read(in, c.response_agreement);
    else if (is("ttl_agreement")) read(in, c.ttl_agreement);
    else if (is("control_path_stability")) read(in, c.control_path_stability);
    else if (is("icmp_rate_limited")) read(in, c.icmp_rate_limited);
    else if (is("path_churn")) read(in, c.path_churn);
    else if (is("loss_recovered_probes")) read(in, c.loss_recovered_probes);
    else if (is("hop_confidence")) {
      in.array([&] {
        double v = 0;
        if (in.read_number(v)) c.hop_confidence.push_back(v);
      });
    }
  });
}

void read_degradation(JsonReader& in, trace::DegradationInfo& d) {
  std::optional<trace::DegradationMode> mode;
  const bool present = members(in, [&](Key& is) {
    if (is("mode")) read_enum(in, mode, 4, trace::degradation_mode_name);
    else if (is("icmp_answer_rate")) read(in, d.icmp_answer_rate);
    else if (is("dead_channel_sweeps")) read(in, d.dead_channel_sweeps);
    else if (is("vantage_count")) read(in, d.vantage_count);
    else if (is("tomography_observations")) read(in, d.tomography_observations);
    else if (is("tomography_solved")) read(in, d.tomography_solved);
    else if (is("candidate_links")) {
      in.array([&] {
        trace::BlamedLink link;
        if (members(in, [&](Key& is_link) {
              if (is_link("ip_a")) read(in, link.ip_a);
              else if (is_link("ip_b")) read(in, link.ip_b);
              else if (is_link("confidence")) read(in, link.confidence);
              else if (is_link("blocked_paths")) read(in, link.blocked_paths);
              else if (is_link("clean_paths")) read(in, link.clean_paths);
            })) {
          d.candidate_links.push_back(link);
        }
      });
    }
  });
  if (!present) return;
  if (!mode) return in.fail();
  d.mode = *mode;
}

}  // namespace

std::optional<trace::CenTraceReport> trace_report_from_json(std::string_view text) {
  JsonReader in(text);
  trace::CenTraceReport r;
  bool tool = false;
  std::optional<net::Ipv4Address> endpoint;
  std::optional<trace::ProbeProtocol> protocol;
  std::optional<trace::BlockingType> btype;
  std::optional<trace::BlockingLocation> loc;
  std::optional<trace::DevicePlacement> placement;
  members(in, [&](Key& is) {
    if (is("tool")) tool = read_tool(in, "centrace");
    else if (is("endpoint")) read(in, endpoint);
    else if (is("test_domain")) read(in, r.test_domain);
    else if (is("control_domain")) read(in, r.control_domain);
    else if (is("protocol")) read_enum(in, protocol, 4, trace::probe_protocol_name);
    else if (is("blocked")) read(in, r.blocked);
    else if (is("blocking_type")) read_enum(in, btype, 5, trace::blocking_type_name);
    else if (is("location")) read_enum(in, loc, 5, trace::blocking_location_name);
    else if (is("placement")) read_enum(in, placement, 3, trace::device_placement_name);
    else if (is("blocking_hop_ttl")) read(in, r.blocking_hop_ttl);
    else if (is("blocking_hop_ip")) read(in, r.blocking_hop_ip);
    else if (is("blocking_as")) {
      geo::AsInfo as;
      if (members(in, [&](Key& is_as) {
            if (is_as("asn")) read(in, as.asn);
            else if (is_as("name")) read(in, as.name);
            else if (is_as("country")) read(in, as.country);
          })) {
        r.blocking_as = std::move(as);
      }
    } else if (is("endpoint_hop_distance")) read(in, r.endpoint_hop_distance);
    else if (is("ttl_copy_detected")) read(in, r.ttl_copy_detected);
    else if (is("blockpage_vendor")) read(in, r.blockpage_vendor);
    else if (is("injected_packet")) {
      // Header fields of the injected packet — the Table 3 clustering
      // features. Absent ones read as 0, not as Packet's defaults.
      net::Packet p;
      p.ip.ttl = 0;
      p.ip.flags = 0;
      p.tcp.window = 0;
      if (members(in, [&](Key& is_pkt) {
            if (is_pkt("ip_ttl")) read(in, p.ip.ttl);
            else if (is_pkt("ip_id")) read(in, p.ip.identification);
            else if (is_pkt("ip_flags")) read(in, p.ip.flags);
            else if (is_pkt("ip_tos")) read(in, p.ip.tos);
            else if (is_pkt("tcp_window")) read(in, p.tcp.window);
            else if (is_pkt("tcp_flags")) read(in, p.tcp.flags);
          })) {
        r.injected_packet = std::move(p);
      }
    } else if (is("confidence")) read_confidence(in, r.confidence);
    else if (is("degradation")) read_degradation(in, r.degradation);
    else if (is("control_path")) {
      in.array([&] {
        std::optional<net::Ipv4Address> hop;
        read(in, hop);
        r.control_path.push_back(hop);
      });
    } else if (is("quote_diffs")) {
      in.array([&] {
        trace::QuoteDiff diff;
        if (members(in, [&](Key& is_diff) {
              if (is_diff("router")) read(in, diff.router);
              else if (is_diff("parse_ok")) read(in, diff.parse_ok);
              else if (is_diff("rfc792_minimal")) read(in, diff.rfc792_minimal);
              else if (is_diff("full_tcp_quoted")) read(in, diff.full_tcp_quoted);
              else if (is_diff("tos_changed")) read(in, diff.tos_changed);
              else if (is_diff("ip_flags_changed")) read(in, diff.ip_flags_changed);
              else if (is_diff("ports_match")) read(in, diff.ports_match);
            })) {
          r.quote_diffs.push_back(diff);
        }
      });
    }
  });
  if (!in.finish() || !tool || !endpoint || !protocol || !btype || !loc || !placement) {
    return std::nullopt;
  }
  r.endpoint = *endpoint;
  r.protocol = *protocol;
  r.blocking_type = *btype;
  r.location = *loc;
  r.placement = *placement;
  return r;
}

std::optional<probe::DeviceProbeReport> probe_report_from_json(std::string_view text) {
  JsonReader in(text);
  probe::DeviceProbeReport r;
  bool tool = false;
  std::optional<net::Ipv4Address> ip;
  members(in, [&](Key& is) {
    if (is("tool")) tool = read_tool(in, "cenprobe");
    else if (is("ip")) read(in, ip);
    else if (is("open_ports")) {
      in.array([&] {
        double port = 0;
        if (in.read_number(port)) r.open_ports.push_back(saturate_cast<std::uint16_t>(port));
      });
    } else if (is("banners")) {
      in.array([&] {
        probe::BannerGrab grab;
        if (members(in, [&](Key& is_grab) {
              if (is_grab("port")) read(in, grab.port);
              else if (is_grab("protocol")) read(in, grab.protocol);
              else if (is_grab("banner")) read(in, grab.banner);
              else if (is_grab("complete")) read(in, grab.complete);
              else if (is_grab("attempts")) read(in, grab.attempts);
            })) {
          r.banners.push_back(std::move(grab));
        }
      });
    } else if (is("vendor")) read(in, r.vendor);
    else if (is("stack")) {
      // Absent members read as 0/false, not as StackFingerprint's defaults.
      censor::StackFingerprint fp;
      fp.synack_window = 0;
      fp.mss = 0;
      fp.sack_permitted = false;
      if (members(in, [&](Key& is_fp) {
            if (is_fp("synack_ttl")) read(in, fp.synack_ttl);
            else if (is_fp("synack_window")) read(in, fp.synack_window);
            else if (is_fp("mss")) read(in, fp.mss);
            else if (is_fp("sack_permitted")) read(in, fp.sack_permitted);
            else if (is_fp("rst_ttl")) read(in, fp.rst_ttl);
          })) {
        r.stack = fp;
      }
    }
  });
  if (!in.finish() || !tool || !ip) return std::nullopt;
  r.ip = *ip;
  for (probe::BannerGrab& grab : r.banners) grab.ip = r.ip;
  return r;
}

std::optional<fuzz::CenFuzzReport> fuzz_report_from_json(std::string_view text) {
  JsonReader in(text);
  fuzz::CenFuzzReport r;
  bool tool = false;
  std::optional<net::Ipv4Address> endpoint;
  members(in, [&](Key& is) {
    if (is("tool")) tool = read_tool(in, "cenfuzz");
    else if (is("endpoint")) read(in, endpoint);
    else if (is("test_domain")) read(in, r.test_domain);
    else if (is("control_domain")) read(in, r.control_domain);
    else if (is("http_baseline_blocked")) read(in, r.http_baseline_blocked);
    else if (is("tls_baseline_blocked")) read(in, r.tls_baseline_blocked);
    else if (is("total_requests")) read(in, r.total_requests);
    else if (is("skipped_strategies")) read(in, r.skipped_strategies);
    else if (is("measurements")) {
      in.array([&] {
        fuzz::FuzzMeasurement m;
        std::optional<fuzz::FuzzOutcome> outcome;
        if (!members(in, [&](Key& is_m) {
              if (is_m("strategy")) read(in, m.strategy);
              else if (is_m("permutation")) read(in, m.permutation);
              else if (is_m("https")) read(in, m.https);
              else if (is_m("outcome")) read_enum(in, outcome, 3, fuzz::fuzz_outcome_name);
              else if (is_m("circumvented")) read(in, m.circumvented);
              else if (is_m("baseline_failed")) read(in, m.baseline_failed);
            })) {
          return;
        }
        if (!outcome) return in.fail();
        m.outcome = *outcome;
        r.measurements.push_back(std::move(m));
      });
    }
  });
  if (!in.finish() || !tool || !endpoint) return std::nullopt;
  r.endpoint = *endpoint;
  return r;
}

std::optional<ambig::AmbigReport> ambig_report_from_json(std::string_view text) {
  JsonReader in(text);
  ambig::AmbigReport r;
  bool tool = false;
  std::optional<net::Ipv4Address> endpoint;
  members(in, [&](Key& is) {
    if (is("tool")) tool = read_tool(in, "cenambig");
    else if (is("endpoint")) read(in, endpoint);
    else if (is("test_domain")) read(in, r.test_domain);
    else if (is("control_domain")) read(in, r.control_domain);
    else if (is("baseline_blocked")) read(in, r.baseline_blocked);
    else if (is("endpoint_distance")) read(in, r.endpoint_distance);
    else if (is("insertion_ttl")) read(in, r.insertion_ttl);
    else if (is("total_probes_sent")) read(in, r.total_probes_sent);
    else if (is("probes")) {
      in.array([&] {
        ambig::AmbigProbeResult p;
        std::optional<ambig::ProbeOutcome> test;
        std::optional<ambig::ProbeOutcome> control;
        if (!members(in, [&](Key& is_p) {
              if (is_p("name")) read(in, p.name);
              else if (is_p("test_outcome")) read_enum(in, test, 5, ambig::probe_outcome_name);
              else if (is_p("control_outcome")) {
                read_enum(in, control, 5, ambig::probe_outcome_name);
              } else if (is_p("test_blocked_votes")) read(in, p.test_blocked_votes);
              else if (is_p("control_clean_votes")) read(in, p.control_clean_votes);
              else if (is_p("repetitions")) read(in, p.repetitions);
              else if (is_p("discrepant")) read(in, p.discrepant);
              else if (is_p("testable")) read(in, p.testable);
            })) {
          return;
        }
        if (!test || !control) return in.fail();
        p.test_outcome = *test;
        p.control_outcome = *control;
        r.probes.push_back(std::move(p));
      });
    }
  });
  if (!in.finish() || !tool || !endpoint) return std::nullopt;
  r.endpoint = *endpoint;
  return r;
}

}  // namespace cen::report

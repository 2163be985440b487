#include "report/json_report.hpp"

#include "core/json.hpp"
#include "report/wire.hpp"

namespace cen::report {

std::string to_json(const trace::CenTraceReport& report, bool include_sweeps) {
  JsonWriter w;
  w.begin_object();
  wire::write_members<trace::CenTraceReport>(w, report);
  if (include_sweeps) {
    w.key("control_sweeps");
    wire::write(w, report.control_traces);
    w.key("test_sweeps");
    wire::write(w, report.test_traces);
  }
  w.end_object();
  return w.str();
}

std::string to_json(const fuzz::CenFuzzReport& report) { return wire::encode(report); }

std::string to_json(const ambig::AmbigReport& report) { return wire::encode(report); }

std::string to_json(const probe::DeviceProbeReport& report) { return wire::encode(report); }

std::string to_json(const scenario::PipelineResult& result) {
  // Composed from the per-report serializers, so escaping and
  // comma/structure bookkeeping all live in JsonWriter — no hand-rolled
  // string assembly.
  JsonWriter w;
  w.begin_object();
  w.key("country").value(result.country);
  w.key("remote_traces");
  wire::write(w, result.remote_traces);
  w.key("incountry_traces");
  wire::write(w, result.incountry_traces);
  w.key("device_probes").begin_object();
  for (const auto& [ip, rep] : result.device_probes) {
    w.key(net::Ipv4Address(ip).str()).raw_value(to_json(rep));
  }
  w.end_object();
  w.key("measurements").begin_array();
  for (const ml::EndpointMeasurement& m : result.measurements) {
    w.begin_object();
    w.key("endpoint_id").value(m.endpoint_id);
    w.key("fuzz");
    wire::write(w, m.fuzz);
    w.key("banner");
    wire::write(w, m.banner);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string to_json(const obs::Observer& observer, bool include_wall) {
  JsonWriter w;
  w.begin_object();
  w.key("metrics").raw_value(observer.metrics().to_json(include_wall));
  w.key("journal").raw_value(observer.journal().to_json());
  w.key("span_count").value(static_cast<std::uint64_t>(observer.tracer().spans().size()));
  w.end_object();
  return w.str();
}

}  // namespace cen::report

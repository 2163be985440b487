#include "report/from_json.hpp"

#include "report/wire.hpp"

namespace cen::report {

std::optional<trace::CenTraceReport> trace_report_from_json(std::string_view text) {
  return wire::decode<trace::CenTraceReport>(text);
}

std::optional<probe::DeviceProbeReport> probe_report_from_json(std::string_view text) {
  std::optional<probe::DeviceProbeReport> r = wire::decode<probe::DeviceProbeReport>(text);
  if (r) {
    for (probe::BannerGrab& grab : r->banners) grab.ip = r->ip;
  }
  return r;
}

std::optional<fuzz::CenFuzzReport> fuzz_report_from_json(std::string_view text) {
  return wire::decode<fuzz::CenFuzzReport>(text);
}

std::optional<ambig::AmbigReport> ambig_report_from_json(std::string_view text) {
  return wire::decode<ambig::AmbigReport>(text);
}

}  // namespace cen::report

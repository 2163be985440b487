// Decoders for the tools' JSON report documents: the inverse of
// report/json_report.hpp (sweep logs excepted; cache records are stored
// sweep-less). Both directions walk the field tables of report/wire.hpp,
// which also states the decoding rules.
//
// The campaign engine runs every downstream stage off *decoded* records,
// whether the record came from a fresh measurement or the incremental
// cache, so a resumed campaign follows byte-identical control flow to an
// uninterrupted one. That only works if decoding captures everything the
// later stages consume: device-IP discovery (CenProbe targeting), blocked
// endpoints (CenFuzz targeting) and the full Table 3 feature inputs.
#pragma once

#include <optional>
#include <string_view>

#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "centrace/centrace.hpp"

namespace cen::report {

/// Decode a CenTrace report document (as written by to_json; sweep
/// arrays, if present, are skipped). nullopt when the text is not a
/// centrace report or a required field is malformed.
std::optional<trace::CenTraceReport> trace_report_from_json(std::string_view text);

/// Decode a CenProbe device report document.
std::optional<probe::DeviceProbeReport> probe_report_from_json(std::string_view text);

/// Decode a CenFuzz report document. Per-request results are not part of
/// the wire format; only the classification fields round-trip.
std::optional<fuzz::CenFuzzReport> fuzz_report_from_json(std::string_view text);

/// Decode a CenAmbig report document.
std::optional<ambig::AmbigReport> ambig_report_from_json(std::string_view text);

}  // namespace cen::report

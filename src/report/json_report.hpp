// JSON serialization of the measurement tools' reports — the machine-
// readable output format the open-source CenTrace/CenFuzz/CenProbe tools
// write (one JSON document per measurement, suitable for JSONL streams).
// The tool reports are written by the field tables of report/wire.hpp,
// in table order: that order is canonical, and the campaign cache splices
// these documents byte for byte.
#pragma once

#include <string>

#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "centrace/centrace.hpp"
#include "obs/observer.hpp"
#include "scenario/pipeline.hpp"

namespace cen::report {

/// Full CenTrace report: verdict, localisation, per-sweep hop logs.
std::string to_json(const trace::CenTraceReport& report, bool include_sweeps = false);

/// Full CenFuzz report: baseline state + one record per permutation.
std::string to_json(const fuzz::CenFuzzReport& report);

/// CenProbe device report: ports, banners, vendor label.
std::string to_json(const probe::DeviceProbeReport& report);

/// CenAmbig report: endpoint distance, per-probe verdicts and votes.
std::string to_json(const ambig::AmbigReport& report);

/// Whole pipeline result: country, every remote/in-country trace (the
/// pipeline keeps no sweep logs), device probes keyed by IP and the per-endpoint
/// measurement bundles. This is the canonical golden-file format the
/// serial-vs-parallel determinism tests byte-compare.
std::string to_json(const scenario::PipelineResult& result);

/// Observability snapshot: the metrics registry plus the measurement
/// journal as one JSON document (spans are exported separately, in Chrome
/// trace-event format — obs::Tracer::to_chrome_json). With
/// `include_wall = false` (default) only sim-domain metrics are emitted,
/// so the document is byte-identical across worker counts; passing true
/// adds the host-clock wall-domain series for profiling.
std::string to_json(const obs::Observer& observer, bool include_wall = false);

}  // namespace cen::report

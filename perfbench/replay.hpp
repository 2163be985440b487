// The traced run: per-layer numbers for one workload.
//
// The replay re-drives a campaign's tasks (taken from a timed run's
// CampaignResult::records) through the same public calls campaign::run
// makes, and records one span per call from outside the program. Spans
// stay in memory and are written as Chrome trace-event JSON at the end.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Replay `timed`'s tasks for workload `w` with the result cache at
/// `cache_path` (a fresh file for cold workloads, the prefilled one for a
/// warm workload), write the span tree to `spans_path`, and return every
/// per-layer metric (the net/censor per-call rows included).
Metrics traced_replay(const Workload& w, const cen::campaign::CampaignResult& timed,
                      const std::string& cache_path, const std::string& spans_path);

/// Nearest-rank quantile of sorted samples (0 when empty).
double quantile(const std::vector<double>& sorted, double q);

}  // namespace perfbench

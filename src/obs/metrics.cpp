#include "obs/metrics.hpp"

#include <stdexcept>

#include "core/json.hpp"

namespace cen::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map onto
/// that by swapping every other character for '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = "cen_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus `quantile` label for an integer percent, without touching
/// float formatting: 50 -> "0.5", 99 -> "0.99", 5 -> "0.05".
std::string quantile_label(int percent) {
  if (percent <= 0) return "0";
  if (percent >= 100) return "1";
  if (percent % 10 == 0) return "0." + std::to_string(percent / 10);
  return (percent < 10 ? "0.0" : "0.") + std::to_string(percent);
}

}  // namespace

void Histogram::observe(std::uint64_t v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

Counter& Registry::counter(const std::string& name, Domain domain) {
  if (gauges_.count(name) || histograms_.count(name) || quantiles_.count(name)) {
    throw std::logic_error("metric kind mismatch: " + name);
  }
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) {
    it->second.domain = domain;
  } else if (it->second.domain != domain) {
    throw std::logic_error("metric domain mismatch: " + name);
  }
  return it->second.metric;
}

Gauge& Registry::gauge(const std::string& name, Domain domain) {
  if (counters_.count(name) || histograms_.count(name) || quantiles_.count(name)) {
    throw std::logic_error("metric kind mismatch: " + name);
  }
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) {
    it->second.domain = domain;
  } else if (it->second.domain != domain) {
    throw std::logic_error("metric domain mismatch: " + name);
  }
  return it->second.metric;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::uint64_t> bounds,
                               Domain domain) {
  if (counters_.count(name) || gauges_.count(name) || quantiles_.count(name)) {
    throw std::logic_error("metric kind mismatch: " + name);
  }
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      throw std::logic_error("histogram bounds not strictly increasing: " + name);
    }
  }
  auto [it, inserted] = histograms_.try_emplace(name);
  Histogram& h = it->second.metric;
  if (inserted) {
    it->second.domain = domain;
    h.bounds_ = std::move(bounds);
    h.counts_.assign(h.bounds_.size() + 1, 0);
  } else {
    if (it->second.domain != domain) {
      throw std::logic_error("metric domain mismatch: " + name);
    }
    if (h.bounds_ != bounds) {
      throw std::logic_error("histogram bounds mismatch: " + name);
    }
  }
  return h;
}

CkmsQuantiles& Registry::quantiles(const std::string& name,
                                   std::vector<QuantileTarget> targets,
                                   Domain domain) {
  if (counters_.count(name) || gauges_.count(name) || histograms_.count(name)) {
    throw std::logic_error("metric kind mismatch: " + name);
  }
  auto it = quantiles_.find(name);
  if (it == quantiles_.end()) {
    Entry<CkmsQuantiles> entry{CkmsQuantiles(std::move(targets)), domain};
    it = quantiles_.emplace(name, std::move(entry)).first;
  } else {
    if (it->second.domain != domain) {
      throw std::logic_error("metric domain mismatch: " + name);
    }
    if (it->second.metric.targets() != targets) {
      throw std::logic_error("quantile targets mismatch: " + name);
    }
  }
  return it->second.metric;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.metric.value();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second.metric;
}

const CkmsQuantiles* Registry::find_quantiles(const std::string& name) const {
  auto it = quantiles_.find(name);
  return it == quantiles_.end() ? nullptr : &it->second.metric;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, entry] : other.counters_) {
    counter(name, entry.domain).inc(entry.metric.value());
  }
  for (const auto& [name, entry] : other.gauges_) {
    // Only gauges the donor actually set participate in the max; a gauge
    // that merely exists (created but never touched) must not inject a
    // default 0 — that would silently clobber negative values.
    Gauge& g = gauge(name, entry.domain);
    if (entry.metric.touched()) g.set_max(entry.metric.value());
  }
  for (const auto& [name, entry] : other.histograms_) {
    Histogram& h = histogram(name, entry.metric.bounds(), entry.domain);
    for (std::size_t i = 0; i < h.counts_.size(); ++i) {
      h.counts_[i] += entry.metric.counts_[i];
    }
    h.count_ += entry.metric.count_;
    h.sum_ += entry.metric.sum_;
  }
  for (const auto& [name, entry] : other.quantiles_) {
    quantiles(name, entry.metric.targets(), entry.domain)
        .merge_from(entry.metric);
  }
}

bool Registry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         quantiles_.empty();
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  quantiles_.clear();
}

std::string Registry::to_prometheus(bool include_wall) const {
  std::string out;
  auto keep = [&](Domain d) { return include_wall || d == Domain::kSim; };
  for (const auto& [name, entry] : counters_) {
    if (!keep(entry.domain)) continue;
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(entry.metric.value()) + "\n";
  }
  for (const auto& [name, entry] : gauges_) {
    if (!keep(entry.domain)) continue;
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(entry.metric.value()) + "\n";
  }
  for (const auto& [name, entry] : histograms_) {
    if (!keep(entry.domain)) continue;
    const Histogram& h = entry.metric;
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      cumulative += h.counts()[i];
      out += p + "_bucket{le=\"" + std::to_string(h.bounds()[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
    out += p + "_sum " + std::to_string(h.sum()) + "\n";
    out += p + "_count " + std::to_string(h.count()) + "\n";
  }
  for (const auto& [name, entry] : quantiles_) {
    if (!keep(entry.domain)) continue;
    const CkmsQuantiles& q = entry.metric;
    std::string p = prometheus_name(name);
    out += "# TYPE " + p + " summary\n";
    for (const QuantileTarget& t : q.targets()) {
      out += p + "{quantile=\"" + quantile_label(t.percent) + "\"} " +
             std::to_string(q.query(t.percent)) + "\n";
    }
    out += p + "_sum " + std::to_string(q.sum()) + "\n";
    out += p + "_count " + std::to_string(q.count()) + "\n";
  }
  return out;
}

std::string Registry::to_json(bool include_wall) const {
  JsonWriter w;
  auto keep = [&](Domain d) { return include_wall || d == Domain::kSim; };
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, entry] : counters_) {
    if (keep(entry.domain)) w.key(name).value(entry.metric.value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, entry] : gauges_) {
    if (keep(entry.domain)) {
      w.key(name).value(static_cast<std::int64_t>(entry.metric.value()));
    }
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, entry] : histograms_) {
    if (!keep(entry.domain)) continue;
    const Histogram& h = entry.metric;
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (std::uint64_t b : h.bounds()) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts()) w.value(c);
    w.end_array();
    w.key("count").value(h.count());
    w.key("sum").value(h.sum());
    w.end_object();
  }
  w.end_object();
  w.key("quantiles").begin_object();
  for (const auto& [name, entry] : quantiles_) {
    if (!keep(entry.domain)) continue;
    const CkmsQuantiles& q = entry.metric;
    w.key(name).begin_object();
    for (const QuantileTarget& t : q.targets()) {
      w.key("p" + std::to_string(t.percent)).value(q.query(t.percent));
    }
    w.key("count").value(q.count());
    w.key("sum").value(q.sum());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace cen::obs

#include "scenario/dag.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "scenario/executor.hpp"

namespace cen::scenario {

std::vector<std::size_t> stride_sample_indices(std::size_t n, int cap) {
  // Slot i takes index (i*n)/k: strictly increasing for k <= n, so no index
  // repeats (a float stride could truncate two slots onto one element and
  // measure it twice), and k == n takes every index.
  const std::uint64_t k =
      cap < 0 ? n : std::min<std::uint64_t>(static_cast<std::uint64_t>(cap), n);
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t i = 0; i < k; ++i) out.push_back(static_cast<std::size_t>(i * n / k));
  return out;
}

namespace dag {

namespace {

// Identity tags, folded into task_key() beside the endpoint and domain. A
// trace task's tag is its protocol (0..3), plus kInCountry for in-country
// vantage points.
constexpr std::uint64_t kInCountry = 0x8;
constexpr std::uint64_t kProbe = 0x10;
constexpr std::uint64_t kFuzz = 0x20;
constexpr std::uint64_t kAmbig = 0x30;
static_assert(static_cast<std::uint64_t>(trace::ProbeProtocol::kDnsUdp) < kInCountry &&
                  (kInCountry | 0x7) < kProbe && kProbe < kFuzz && kFuzz < kAmbig,
              "two identity tags overlap");

std::vector<EndpointTask> endpoint_tasks(const Representatives& representatives, int cap,
                                         std::uint64_t tag) {
  std::vector<EndpointTask> blocked;
  for (const auto& [ip, rep] : representatives) blocked.push_back({net::Ipv4Address(ip), rep, 0});
  std::vector<EndpointTask> tasks = stride_sample(blocked, cap);
  for (EndpointTask& t : tasks) {
    t.identity = task_key(t.endpoint.value(), t.trace->test_domain, tag);
  }
  return tasks;
}

/// The report of `ep` moved out of `reports` (parallel to `tasks`, both in
/// IP order, walked by `next` alongside the bundle rows), or nothing.
template <class Report>
std::optional<Report> take(const std::vector<EndpointTask>& tasks, std::vector<Report>& reports,
                           std::size_t& next, std::uint32_t ep) {
  if (next >= tasks.size() || tasks[next].endpoint.value() != ep) return std::nullopt;
  return std::move(reports[next++]);
}

}  // namespace

std::vector<TraceTask> trace_tasks(const std::vector<net::Ipv4Address>& endpoints,
                                   std::initializer_list<DomainList> lists) {
  // Each domain is hashed once, not once per endpoint.
  struct Column {
    const std::string* domain;
    trace::ProbeProtocol protocol;
    std::uint64_t dhash;
  };
  std::vector<Column> columns;
  for (const DomainList& list : lists) {
    for (const std::string& d : list.domains) {
      columns.push_back({&d, list.protocol, domain_hash(d)});
    }
  }
  std::vector<TraceTask> tasks;
  tasks.reserve(endpoints.size() * columns.size());
  for (net::Ipv4Address endpoint : endpoints) {
    for (const Column& c : columns) {
      tasks.push_back({endpoint, c.domain, c.protocol,
                       task_key_hashed(endpoint.value(), c.dhash,
                                       static_cast<std::uint64_t>(c.protocol))});
    }
  }
  return tasks;
}

void append_incountry_tasks(std::vector<TraceTask>& tasks,
                            const std::vector<net::Ipv4Address>& foreign_endpoints,
                            std::initializer_list<DomainList> lists) {
  std::size_t next = 0;
  for (const DomainList& list : lists) {
    for (const std::string& domain : list.domains) {
      if (next >= foreign_endpoints.size()) return;
      const net::Ipv4Address endpoint = foreign_endpoints[next++];
      const std::uint64_t tag = static_cast<std::uint64_t>(list.protocol) | kInCountry;
      tasks.push_back({endpoint, &domain, list.protocol, task_key(endpoint.value(), domain, tag)});
    }
  }
}

std::vector<DeviceTask> device_tasks(const std::vector<trace::CenTraceReport>& traces) {
  std::set<std::uint32_t> ips;
  for (const trace::CenTraceReport& r : traces) {
    if (r.blocked && r.blocking_hop_ip && r.placement != trace::DevicePlacement::kOnPath) {
      ips.insert(r.blocking_hop_ip->value());
    }
  }
  std::vector<DeviceTask> tasks;
  for (std::uint32_t ip : ips) tasks.push_back({net::Ipv4Address(ip), task_key(ip, {}, kProbe)});
  return tasks;
}

Representatives representatives(const std::vector<TraceTask>& tasks,
                                const std::vector<trace::CenTraceReport>& traces) {
  Representatives out;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (traces[i].blocked) out.emplace(tasks[i].endpoint.value(), &traces[i]);
  }
  return out;
}

std::vector<EndpointTask> fuzz_tasks(const Representatives& representatives, int cap) {
  return endpoint_tasks(representatives, cap, kFuzz);
}

std::vector<EndpointTask> ambig_tasks(const Representatives& representatives, int cap) {
  return endpoint_tasks(representatives, cap, kAmbig);
}

void bundle(const std::string& country, const Representatives& representatives,
            const std::map<std::uint32_t, probe::DeviceProbeReport>& banners,
            const std::vector<EndpointTask>& fuzz_tasks, std::vector<fuzz::CenFuzzReport> fuzz,
            const std::vector<EndpointTask>& ambig_tasks, std::vector<ambig::AmbigReport> ambig,
            std::vector<ml::EndpointMeasurement>& out) {
  std::size_t next_fuzz = 0, next_ambig = 0;
  for (const auto& [ep, rep] : representatives) {
    ml::EndpointMeasurement& m = out.emplace_back();
    m.endpoint_id = net::Ipv4Address(ep).str();
    m.country = country;
    m.trace = *rep;
    m.fuzz = take(fuzz_tasks, fuzz, next_fuzz, ep);
    m.ambig = take(ambig_tasks, ambig, next_ambig, ep);
    if (rep->blocking_hop_ip) {
      auto banner = banners.find(rep->blocking_hop_ip->value());
      if (banner != banners.end()) m.banner = banner->second;
    }
  }
}

}  // namespace dag

}  // namespace cen::scenario

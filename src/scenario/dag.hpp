// The measurement DAG of one site, as the paper runs it (§4–§7):
//   1. CenTrace every (endpoint, test domain, protocol): each endpoint
//      measures the HTTP domains, then the HTTPS domains;
//   2. CenProbe every distinct in-path blocking-hop IP;
//   3. CenFuzz (and CenAmbig) blocked endpoints, each with the test domain
//      of its representative blocked trace;
//   4. bundle one ml::EndpointMeasurement per blocked endpoint.
// The one definition of each stage's tasks: which, in which order, under
// which caps and with which identity key (what derive_task_seeds folds
// in). campaign::run, the pipeline and the CenTrace fan-out plan through
// it and keep only their own dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ml/features.hpp"

namespace cen::scenario {

/// Indices of an even stride sample of `cap` items out of [0, n). Pure
/// integer arithmetic — index i maps to (i*n)/cap — so the indices are
/// strictly increasing (no duplicates, unlike float-stride truncation)
/// and spread across the whole range, keeping every AS represented.
/// cap < 0 or cap >= n returns all n indices.
std::vector<std::size_t> stride_sample_indices(std::size_t n, int cap);

/// The items at stride_sample_indices(all.size(), cap): how every cap
/// (endpoints, domains, fuzz and ambig targets) samples.
template <class T>
std::vector<T> stride_sample(const std::vector<T>& all, int cap) {
  std::vector<T> out;
  for (std::size_t i : stride_sample_indices(all.size(), cap)) out.push_back(all[i]);
  return out;
}

namespace dag {

/// Test domains measured under one protocol.
struct DomainList {
  const std::vector<std::string>& domains;
  trace::ProbeProtocol protocol;
};

struct TraceTask {
  net::Ipv4Address endpoint;
  const std::string* domain;  ///< into the planning call's DomainList
  trace::ProbeProtocol protocol;
  std::uint64_t identity;
};

/// Every endpoint measures every domain of each list, lists in order.
std::vector<TraceTask> trace_tasks(const std::vector<net::Ipv4Address>& endpoints,
                                   std::initializer_list<DomainList> lists);

/// In-country traces (their own identity tag): the i-th foreign endpoint
/// measures the i-th domain of the lists until either runs out. Appended
/// after the remote tasks, so those keep their positions and seeds.
void append_incountry_tasks(std::vector<TraceTask>& tasks,
                            const std::vector<net::Ipv4Address>& foreign_endpoints,
                            std::initializer_list<DomainList> lists);

struct DeviceTask {
  net::Ipv4Address ip;
  std::uint64_t identity;
};

/// The distinct blocking-hop IPs of blocked traces whose device is not
/// on-path (a tap has no in-path hop to scan), in IP order.
std::vector<DeviceTask> device_tasks(const std::vector<trace::CenTraceReport>& traces);

/// Blocked endpoint -> its first blocked trace in task order, in IP order.
using Representatives = std::map<std::uint32_t, const trace::CenTraceReport*>;

/// traces[i] is the report of tasks[i]; tasks past traces.size() (the
/// pipeline's in-country ones) represent no endpoint.
Representatives representatives(const std::vector<TraceTask>& tasks,
                                const std::vector<trace::CenTraceReport>& traces);

/// A CenFuzz or CenAmbig task: a blocked endpoint and its representative.
struct EndpointTask {
  net::Ipv4Address endpoint;
  const trace::CenTraceReport* trace;
  std::uint64_t identity;
};

/// A stride sample of `cap` blocked endpoints (-1 = all), in IP order.
std::vector<EndpointTask> fuzz_tasks(const Representatives& representatives, int cap);
std::vector<EndpointTask> ambig_tasks(const Representatives& representatives, int cap);

/// Append one row per blocked endpoint, in IP order: its representative
/// trace, its blocking hop's banner (copied: a device serves many
/// endpoints) and its fuzz and ambig reports (moved), where measured.
/// fuzz[i] is the report of fuzz_tasks[i], and likewise for ambig.
void bundle(const std::string& country, const Representatives& representatives,
            const std::map<std::uint32_t, probe::DeviceProbeReport>& banners,
            const std::vector<EndpointTask>& fuzz_tasks, std::vector<fuzz::CenFuzzReport> fuzz,
            const std::vector<EndpointTask>& ambig_tasks, std::vector<ambig::AmbigReport> ambig,
            std::vector<ml::EndpointMeasurement>& out);

}  // namespace dag

}  // namespace cen::scenario

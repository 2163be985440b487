#include "microbench.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>

#include "censor/device.hpp"
#include "censor/dpi.hpp"
#include "centrace/centrace.hpp"
#include "net/http.hpp"
#include "net/icmp.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/tls.hpp"
#include "scenario/executor.hpp"

namespace perfbench {

using namespace cen;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxEndpointsPerSite = 16;
constexpr std::size_t kMaxDevices = 16;

/// Results feed this sink so no timed call can be optimised away.
volatile std::size_t g_sink = 0;

double elapsed_ns(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Median per-call cost (ns) of `call(i)` over inputs [0, n): the sweep is
/// repeated until one round lasts at least a millisecond, then nine rounds
/// are timed.
template <class Call>
double per_call_ns(std::size_t n, Call&& call) {
  if (n == 0) return 0.0;
  auto round = [&](std::size_t reps) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < n; ++i) call(i);
    }
    return elapsed_ns(t0);
  };
  std::size_t reps = 1;
  while (round(reps) < 1e6 && reps < (1u << 20)) reps *= 2;
  std::vector<double> rounds;
  for (int k = 0; k < 9; ++k) {
    rounds.push_back(round(reps) / static_cast<double>(reps * n));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

}  // namespace

void micro_metrics(const std::vector<MicroSubjects>& subjects, Metrics& out) {
  std::vector<net::HttpRequest> requests;
  std::vector<std::string> http_payloads;
  std::vector<net::ClientHello> hellos;
  std::vector<Bytes> hello_bytes;
  std::vector<Bytes> packets;           // serialized client→endpoint data packets
  std::vector<net::Packet> parsed_packets;
  std::vector<std::shared_ptr<const censor::DeviceConfig>> configs;
  std::vector<double> route_miss_us;
  std::vector<double> send_us;

  for (const MicroSubjects& s : subjects) {
    for (const std::string& d : s.http_domains) {
      requests.push_back(net::HttpRequest::get(d));
      http_payloads.push_back(requests.back().serialize());
    }
    for (const std::string& d : s.https_domains) {
      hellos.push_back(net::ClientHello::make(d));
      hello_bytes.push_back(hellos.back().serialize());
    }
    sim::Network& netw = *s.site->network;
    for (const auto& dev : netw.devices()) {
      if (configs.size() < kMaxDevices) configs.push_back(dev->config_ptr());
    }
    const net::Ipv4Address client_ip = netw.topology().node_ip(s.site->client);
    const std::size_t eps = std::min(s.endpoints.size(), kMaxEndpointsPerSite);
    for (std::size_t e = 0; e < eps; ++e) {
      for (const std::vector<std::string>* domains : {&s.http_domains, &s.https_domains}) {
        if (domains->empty()) continue;
        const bool tls = domains == &s.https_domains;
        const std::string& domain = (*domains)[e % domains->size()];
        net::Packet p = net::make_tcp_packet(
            client_ip, s.endpoints[e], 40000, tls ? 443 : 80,
            net::TcpFlags::kPsh | net::TcpFlags::kAck, 1, 1,
            trace::CenTrace::make_payload(
                tls ? trace::ProbeProtocol::kHttps : trace::ProbeProtocol::kHttp, domain));
        packets.push_back(p.serialize());
        parsed_packets.push_back(std::move(p));
      }
    }

    // netsim.route_miss: the first equal-cost-path lookup of a client→
    // endpoint pair. The site network itself never ran a task (replicas
    // did), so its path cache is empty and every lookup here is a miss.
    for (std::size_t e = 0; e < eps; ++e) {
      const std::optional<sim::NodeId> dst = netw.topology().find_by_ip(s.endpoints[e]);
      if (!dst) continue;
      const Clock::time_point t0 = Clock::now();
      g_sink = g_sink + netw.topology().equal_cost_paths(s.site->client, *dst).size();
      route_miss_us.push_back(elapsed_ns(t0) / 1e3);
    }

    // netsim.send: one sample per TTL-limited send on an established
    // connection, after a reset to a fresh epoch per endpoint.
    if (s.http_domains.empty()) continue;
    std::vector<sim::Event> events;
    for (std::size_t e = 0; e < eps; ++e) {
      netw.reset_epoch(scenario::domain_hash("perfbench:send") ^ e);
      sim::Connection conn = netw.open_connection(s.site->client, s.endpoints[e], 80);
      if (conn.connect() != sim::ConnectResult::kEstablished) continue;
      const Bytes payload = trace::CenTrace::make_payload(
          trace::ProbeProtocol::kHttp, s.http_domains[e % s.http_domains.size()]);
      for (std::uint8_t ttl : {1, 2, 3, 4, 6, 8, 12, 16, 64}) {
        const Clock::time_point t0 = Clock::now();
        conn.send_into(payload, ttl, events);
        send_us.push_back(elapsed_ns(t0) / 1e3);
        g_sink = g_sink + events.size();
      }
    }
  }
  std::sort(route_miss_us.begin(), route_miss_us.end());
  std::sort(send_us.begin(), send_us.end());

  Bytes buf;
  out.push_back({"net.http_serialize_ns", per_call_ns(requests.size(), [&](std::size_t i) {
                   requests[i].serialize_into(buf);
                   g_sink = g_sink + buf.size();
                 }), "ns"});
  out.push_back({"net.clienthello_serialize_ns", per_call_ns(hellos.size(), [&](std::size_t i) {
                   hellos[i].serialize_into(buf);
                   g_sink = g_sink + buf.size();
                 }), "ns"});
  out.push_back({"net.clienthello_parse_ns", per_call_ns(hello_bytes.size(), [&](std::size_t i) {
                   g_sink = g_sink + net::ClientHello::parse(hello_bytes[i]).cipher_suites.size();
                 }), "ns"});
  out.push_back({"net.packet_quote_ns", per_call_ns(packets.size(), [&](std::size_t i) {
                   const net::QuotePolicy policy =
                       i % 2 == 0 ? net::QuotePolicy::kRfc792 : net::QuotePolicy::kRfc1812Full;
                   g_sink = g_sink + net::IcmpTimeExceeded::make(parsed_packets[i].ip.dst,
                                                                 packets[i], policy)
                                         .quoted.size();
                 }), "ns"});

  const std::size_t nc = configs.size();
  out.push_back({"censor.dpi_http_ns", per_call_ns(nc * http_payloads.size(), [&](std::size_t i) {
                   const auto r = censor::dpi_parse_http(http_payloads[i / nc],
                                                         configs[i % nc]->http_quirks);
                   g_sink = g_sink + (r ? r->host.size() : 0);
                 }), "ns"});
  out.push_back({"censor.dpi_sni_ns", per_call_ns(nc * hello_bytes.size(), [&](std::size_t i) {
                   const auto r =
                       censor::dpi_parse_sni(hello_bytes[i / nc], configs[i % nc]->tls_quirks);
                   g_sink = g_sink + (r ? r->size() : 0);
                 }), "ns"});
  std::vector<censor::Device> devices;
  devices.reserve(nc);  // devices are never moved once they hold flow state
  for (const auto& cfg : configs) devices.emplace_back(cfg);
  out.push_back({"censor.inspect_ns", per_call_ns(nc * parsed_packets.size(), [&](std::size_t i) {
                   const censor::Verdict v =
                       devices[i % nc].inspect(parsed_packets[i / nc], 0);
                   g_sink = g_sink + (v.drop ? 1 : 0);
                 }), "ns"});
  out.push_back({"netsim.route_miss_us.p50", quantile(route_miss_us, 0.5), "us"});
  out.push_back({"netsim.send_us.p50", quantile(send_us, 0.5), "us"});
}

}  // namespace perfbench

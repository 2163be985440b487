// Microbenchmarks: wire codecs, DPI parsers, the packet-walk engine, and
// full tool invocations — the costs behind every number in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>

#include "censor/dpi.hpp"
#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "core/arena.hpp"
#include "core/flat_map.hpp"
#include "ml/random_forest.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"
#include "obs/observer.hpp"

using namespace cen;

static void BM_HttpSerialize(benchmark::State& state) {
  net::HttpRequest req = net::HttpRequest::get("www.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(req.serialize());
  }
}
BENCHMARK(BM_HttpSerialize);

static void BM_ClientHelloSerialize(benchmark::State& state) {
  net::ClientHello ch = net::ClientHello::make("www.example.com");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.serialize());
  }
}
BENCHMARK(BM_ClientHelloSerialize);

// Buffer-reuse regression guards: the *_Reuse variants must stay at or
// below their allocating counterparts — they serialize into a buffer whose
// capacity survives iterations, so a regression here means the reuse path
// lost its zero-allocation property.
static void BM_HttpSerializeReuse(benchmark::State& state) {
  net::HttpRequest req = net::HttpRequest::get("www.example.com");
  Bytes buf;
  for (auto _ : state) {
    req.serialize_into(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_HttpSerializeReuse);

static void BM_ClientHelloSerializeReuse(benchmark::State& state) {
  net::ClientHello ch = net::ClientHello::make("www.example.com");
  Bytes buf;
  for (auto _ : state) {
    ch.serialize_into(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_ClientHelloSerializeReuse);

static void BM_PacketSerializeFull(benchmark::State& state) {
  net::Packet pkt = net::make_tcp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 9, 1), 40000, 80,
      net::TcpFlags::kPsh | net::TcpFlags::kAck, 1, 1,
      net::HttpRequest::get("www.example.com").serialize_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.serialize());
  }
}
BENCHMARK(BM_PacketSerializeFull);

static void BM_PacketSerializePrefixQuote(benchmark::State& state) {
  // The ICMP-quote hot path: at most 128 wire bytes into a reused buffer.
  net::Packet pkt = net::make_tcp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 9, 1), 40000, 80,
      net::TcpFlags::kPsh | net::TcpFlags::kAck, 1, 1,
      net::HttpRequest::get("www.example.com").serialize_bytes());
  Bytes buf;
  for (auto _ : state) {
    pkt.serialize_prefix(buf, net::quote_limit(net::QuotePolicy::kRfc1812Full));
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_PacketSerializePrefixQuote);

static void BM_ClientHelloParse(benchmark::State& state) {
  Bytes bytes = net::ClientHello::make("www.example.com").serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ClientHello::parse(bytes));
  }
}
BENCHMARK(BM_ClientHelloParse);

static void BM_DnsQuerySerializeParse(benchmark::State& state) {
  for (auto _ : state) {
    Bytes wire = net::make_dns_query("www.example.com").serialize_tcp();
    benchmark::DoNotOptimize(net::DnsMessage::parse_tcp(wire));
  }
}
BENCHMARK(BM_DnsQuerySerializeParse);

static void BM_DpiHttp(benchmark::State& state) {
  std::string raw = net::HttpRequest::get("www.blocked.example").serialize();
  censor::HttpQuirks quirks;
  for (auto _ : state) {
    benchmark::DoNotOptimize(censor::dpi_parse_http(raw, quirks));
  }
}
BENCHMARK(BM_DpiHttp);

static void BM_DpiSni(benchmark::State& state) {
  Bytes bytes = net::ClientHello::make("www.blocked.example").serialize();
  censor::TlsQuirks quirks;
  for (auto _ : state) {
    benchmark::DoNotOptimize(censor::dpi_parse_sni(bytes, quirks));
  }
}
BENCHMARK(BM_DpiSni);

namespace {

struct PerfNet {
  PerfNet() {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId prev = client;
    for (int i = 0; i < 10; ++i) {
      sim::NodeId r = topo.add_node(
          "r", net::Ipv4Address(10, 0, 1, static_cast<uint8_t>(i + 1)));
      topo.add_link(prev, r);
      prev = r;
    }
    server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(prev, server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "PERF", "XX"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db));
    sim::EndpointProfile p;
    p.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, p);
    censor::DeviceConfig cfg = censor::make_vendor_device("Cisco", "perf-device");
    cfg.http_rules.add("blocked.example");
    cfg.sni_rules.add("blocked.example");
    net->attach_device(5, std::make_shared<censor::Device>(cfg));
  }
  sim::NodeId client, server;
  std::unique_ptr<sim::Network> net;
};

}  // namespace

static void BM_EnginePacketWalk(benchmark::State& state) {
  PerfNet pn;
  Bytes payload = net::HttpRequest::get("www.example.org").serialize_bytes();
  for (auto _ : state) {
    sim::Connection conn = pn.net->open_connection(pn.client, net::Ipv4Address(10, 0, 9, 1));
    conn.connect();
    benchmark::DoNotOptimize(conn.send(payload, 64));
  }
}
BENCHMARK(BM_EnginePacketWalk);

static void BM_CenTraceMeasurement(benchmark::State& state) {
  PerfNet pn;
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  trace::CenTrace tracer(*pn.net, pn.client, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                            "www.blocked.example", "www.example.org"));
  }
}
BENCHMARK(BM_CenTraceMeasurement)->Unit(benchmark::kMillisecond);

// Instrumentation-overhead guard pairs: the *Observed variants run the
// same hot loops with an obs::Observer attached (metrics + spans +
// journal live); the plain variants above run with the sink detached.
// The enforced <2% disabled-sink budget lives in bench_obs (ctest/bench-
// json); these pairs make the enabled-path cost visible alongside it.
static void BM_EnginePacketWalkObserved(benchmark::State& state) {
  PerfNet pn;
  obs::Observer observer;
  pn.net->set_observer(&observer);
  Bytes payload = net::HttpRequest::get("www.example.org").serialize_bytes();
  for (auto _ : state) {
    sim::Connection conn = pn.net->open_connection(pn.client, net::Ipv4Address(10, 0, 9, 1));
    conn.connect();
    benchmark::DoNotOptimize(conn.send(payload, 64));
  }
}
BENCHMARK(BM_EnginePacketWalkObserved);

static void BM_CenTraceMeasurementObserved(benchmark::State& state) {
  PerfNet pn;
  obs::Observer observer;
  pn.net->set_observer(&observer);
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  trace::CenTrace tracer(*pn.net, pn.client, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.measure(net::Ipv4Address(10, 0, 9, 1),
                                            "www.blocked.example", "www.example.org"));
    // Keep the shards bounded over long benchmark runs: the registry
    // keeps its bound counters, only spans/journal entries are dropped.
    observer.tracer().clear();
    observer.journal().clear();
  }
}
BENCHMARK(BM_CenTraceMeasurementObserved)->Unit(benchmark::kMillisecond);

static void BM_DeviceInspect(benchmark::State& state) {
  censor::DeviceConfig cfg = censor::make_vendor_device("Fortinet", "perf");
  cfg.http_rules.add("blocked.example");
  censor::Device dev(cfg);
  net::Packet pkt = net::make_tcp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 9, 1), 40000, 80,
      net::TcpFlags::kPsh | net::TcpFlags::kAck, 1, 1,
      net::HttpRequest::get("www.blocked.example").serialize_bytes());
  SimTime t = 0;
  for (auto _ : state) {
    t += 200'000;  // stay clear of residual windows
    benchmark::DoNotOptimize(dev.inspect(pkt, t));
  }
}
BENCHMARK(BM_DeviceInspect);

// ---- Hot-path container/allocator pairs (the flat-container and arena
// swap behind Network::clone() and the DPI verdict cache). Each pair runs
// the same operation mix against the replaced std:: implementation and
// its cen::core replacement, so a regression in either direction is
// visible as a ratio, not an absolute.

static void BM_StdMapLookup(benchmark::State& state) {
  std::map<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 48; ++k) m[k * 7919] = static_cast<int>(k);
  std::uint32_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 7919) % (48 * 7919);
    benchmark::DoNotOptimize(m.find(probe));
  }
}
BENCHMARK(BM_StdMapLookup);

static void BM_FlatMapLookup(benchmark::State& state) {
  core::FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 48; ++k) m[k * 7919] = static_cast<int>(k);
  std::uint32_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 7919) % (48 * 7919);
    benchmark::DoNotOptimize(m.find(probe));
  }
}
BENCHMARK(BM_FlatMapLookup);

static void BM_StdMapCopy(benchmark::State& state) {
  // The clone() shape: copy a whole populated map per replica.
  std::map<std::uint32_t, std::uint64_t> m;
  for (std::uint32_t k = 0; k < 64; ++k) m[k * 33] = k;
  for (auto _ : state) {
    std::map<std::uint32_t, std::uint64_t> copy(m);
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_StdMapCopy);

static void BM_FlatMapCopy(benchmark::State& state) {
  core::FlatMap<std::uint32_t, std::uint64_t> m;
  for (std::uint32_t k = 0; k < 64; ++k) m[k * 33] = k;
  for (auto _ : state) {
    core::FlatMap<std::uint32_t, std::uint64_t> copy(m);
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_FlatMapCopy);

static void BM_HeapPacketAlloc(benchmark::State& state) {
  // The DPI-cache shape on the heap: one fresh allocation per payload
  // copy, freed at scope end.
  const Bytes payload = net::HttpRequest::get("www.blocked.example").serialize_bytes();
  for (auto _ : state) {
    std::vector<std::uint8_t> copy(payload.begin(), payload.end());
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_HeapPacketAlloc);

static void BM_ArenaPacketAlloc(benchmark::State& state) {
  // Same copies from a bump arena, rewound in bulk — the epoch-rollback
  // pattern Device::reset_state() and the DPI cache use.
  const Bytes payload = net::HttpRequest::get("www.blocked.example").serialize_bytes();
  core::Arena arena(64 * 1024);
  int n = 0;
  for (auto _ : state) {
    auto* copy = arena.allocate_array<std::uint8_t>(payload.size());
    std::memcpy(copy, payload.data(), payload.size());
    benchmark::DoNotOptimize(copy);
    if (++n == 256) {  // bounded arena growth: rewind like an epoch reset
      arena.reset();
      n = 0;
    }
  }
}
BENCHMARK(BM_ArenaPacketAlloc);

static void BM_NetworkClone(benchmark::State& state) {
  // The per-worker replica cost the flat/COW refactor attacks: shared
  // topology + path cache + endpoints + configs, per-replica devices.
  PerfNet pn;
  // Warm the path cache so clones snapshot a frozen map (steady state).
  sim::Connection conn = pn.net->open_connection(pn.client, net::Ipv4Address(10, 0, 9, 1));
  conn.connect();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pn.net->clone());
  }
}
BENCHMARK(BM_NetworkClone);

static void BM_ResetEpoch(benchmark::State& state) {
  // The per-task sub-epoch cost (batched-epochs hot loop): RNG re-seed +
  // dirty-state rollback.
  PerfNet pn;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    pn.net->reset_epoch(++seed);
    benchmark::DoNotOptimize(pn.net->now());
  }
}
BENCHMARK(BM_ResetEpoch);

static void BM_RandomForestFit(benchmark::State& state) {
  Rng rng(5);
  ml::Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({double(i % 4) * 5 + rng.real(), rng.real() * 10, rng.real()});
    y.push_back(i % 4);
  }
  std::vector<std::size_t> idx(x.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  ml::ForestOptions opts;
  opts.n_trees = 30;
  for (auto _ : state) {
    ml::RandomForest forest(opts);
    forest.fit(x, y, idx, 4);
    benchmark::DoNotOptimize(forest.mdi_importance());
  }
}
BENCHMARK(BM_RandomForestFit)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

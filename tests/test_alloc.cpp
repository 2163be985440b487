// Allocation guard: after warm-up, a CenTrace probe or a CenFuzz request
// costs its packet walk and nothing more. The payload, its route and the
// packets it receives are never copied on the way from send to report,
// and the TLS DPI reads a ClientHello without allocating.
//
// This executable replaces the global operator new with a counting one,
// which is why it is a suite of its own. It counts calls and times
// nothing, so it cannot flake on a slow host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cenfuzz/cenfuzz.hpp"
#include "censor/dpi.hpp"
#include "centrace/centrace.hpp"
#include "net/tls.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Not inlined: GCC would otherwise pair the malloc it sees inside with
// each operator delete and warn of a mismatch. The library's array and
// nothrow forms forward to these.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using namespace cen;
using namespace cen::trace;

namespace {

/// Heap allocations `f` makes.
template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

const net::Ipv4Address kServer(10, 0, 9, 1);
const std::string kDomain = "www.example.org";

/// client - r1..r5 - server, no censor and no faults: TTLs 1-5 expire at
/// a router, TTL 6 reaches the web server.
struct CleanLab {
  CleanLab() {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId prev = client;
    for (int i = 0; i < 5; ++i) {
      const sim::NodeId r = topo.add_node(
          "r" + std::to_string(i + 1), net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
      topo.add_link(prev, r);
      prev = r;
    }
    const sim::NodeId server = topo.add_node("server", kServer);
    topo.add_link(prev, server);
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), geo::IpMetadataDb{});
    profile.hosted_domains = {kDomain};
    net->add_endpoint(server, profile);
  }

  /// Allocations of one sweep probing TTLs 1..max_ttl, measured on the
  /// instance's second sweep (the first fills the payload cache, the
  /// route cache and the scratch buffers).
  std::size_t sweep_cost(int max_ttl) {
    CenTraceOptions opts;
    opts.repetitions = 1;
    opts.max_ttl = max_ttl;
    CenTrace tracer(*net, client, opts);
    tracer.sweep(kServer, kDomain);
    SingleTrace kept;
    return allocations_of([&] { kept = tracer.sweep(kServer, kDomain); });
  }

  sim::NodeId client = sim::kInvalidNode;
  sim::EndpointProfile profile;
  std::unique_ptr<sim::Network> net;
};

}  // namespace

TEST(AllocationBudget, IcmpAnsweredProbeAllocatesOnlyItsQuote) {
  // Sweeps of 3 and 4 hops grow their hop vector the same way (capacity
  // 1, 2, 4), so the difference is exactly what probing TTL 4 costs: the
  // quoted bytes the router's ICMP carries, kept in the report. No copy
  // of the payload, the path, the sent packet or the quote.
  CleanLab lab;
  EXPECT_EQ(lab.sweep_cost(4) - lab.sweep_cost(3), 1u);
}

TEST(AllocationBudget, EndpointProbeAllocatesOnlyTheReply) {
  // Sweeps of 5 and 6 hops both grow their hop vector to capacity 8, so
  // the difference is what probing TTL 6 costs: the web server building
  // its reply, and nothing on the way back to the report.
  CleanLab lab;
  const Bytes payload = CenTrace::make_payload(ProbeProtocol::kHttp, kDomain);
  const sim::EndpointHost host(lab.profile);
  host.handle_payload(payload);
  const std::size_t reply = allocations_of([&] { host.handle_payload(payload); });
  ASSERT_GT(reply, 0u);
  EXPECT_EQ(lab.sweep_cost(6) - lab.sweep_cost(5), reply);
}

TEST(AllocationBudget, TlsDpiParseAllocatesNothing) {
  // The SNI is a view into the payload: no hello DOM, no extension
  // buffers, no copy of the name.
  const Bytes hello = net::ClientHello::make(kDomain).serialize();
  const censor::TlsQuirks quirks;
  std::optional<std::string_view> sni = censor::dpi_parse_sni(hello, quirks);
  EXPECT_EQ(allocations_of([&] { sni = censor::dpi_parse_sni(hello, quirks); }), 0u);
  ASSERT_TRUE(sni);
  EXPECT_EQ(*sni, kDomain);
}

TEST(AllocationBudget, FuzzRequestAllocatesOnlyTheReply) {
  // On a device-free path a warm request costs what the web server
  // allocates to answer it: the request is sent from the probe's bytes
  // into the runner's event buffer, and its reply is classified in place.
  CleanLab lab;
  const sim::EndpointHost host(lab.profile);
  fuzz::CenFuzz fuzzer(*lab.net, lab.client);
  for (const fuzz::FuzzProbe& probe :
       {fuzz::normal_http_probe(kDomain), fuzz::normal_tls_probe(kDomain)}) {
    host.handle_payload(probe.payload);
    const std::size_t reply = allocations_of([&] { host.handle_payload(probe.payload); });
    if (probe.https) {
      EXPECT_EQ(reply, 1u);  // the ServerHello, at its exact size
    }
    ASSERT_GT(reply, 0u);
    for (int warm = 0; warm < 2; ++warm) fuzzer.issue(kServer, probe);
    fuzz::RequestResult result = fuzz::RequestResult::kDropTimeout;
    EXPECT_EQ(allocations_of([&] { result = fuzzer.issue(kServer, probe); }), reply)
        << probe.permutation;
    EXPECT_EQ(result, fuzz::RequestResult::kOk);
  }
}

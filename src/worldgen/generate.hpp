// Deterministic internet-scale world generation (ISSUE 8 tentpole).
//
// generate(spec, seed) emits a World: a power-law AS graph (preferential
// attachment over transit / regional / stub tiers), per-AS IPv4 prefix
// pools carved sequentially from a seeded allocation plan (11.0.0.0/8
// upward, pow2-sized and aligned, disjoint by construction), per-country
// censorship regimes realized as device deployment plans (vendor cycles,
// in-path vs on-path draws, service-exposure funnel mirroring §5.2), and
// a Zipf-skewed endpoint population sampled per stub AS. Everything is
// drawn from phase-isolated RNG substreams of the seed, so the same
// (spec, seed) reproduces a byte-identical world — World::fingerprint()
// is the cache-key digest campaigns mix in.
//
// The topology lands directly in the compact structure-of-arrays storage
// (netsim/compact.hpp): a million-endpoint world is a few tens of MB and
// its Network clones as refcount bumps.
//
// instantiate(world) turns the immutable World into a runnable
// sim::Network plus the scenario-shaped bundle (client, endpoint list,
// ground-truth devices) that the pipeline and campaign layers consume.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/strings.hpp"
#include "geo/asdb.hpp"
#include "netsim/compact.hpp"
#include "netsim/endpoint.hpp"
#include "scenario/country.hpp"  // DeviceTruth
#include "worldgen/spec.hpp"

namespace cen::obs {
class Observer;
}

namespace cen::worldgen {

enum class AsTier : std::uint8_t { kTransit, kRegional, kStub };
inline constexpr std::string_view kAsTierNames[] = {"transit", "regional", "stub"};
constexpr std::string_view as_tier_name(AsTier t) { return enum_name(kAsTierNames, t); }

/// Country index of the measurement AS (it belongs to no regime).
constexpr std::uint16_t kNoCountry = 0xffff;

struct GeneratedAs {
  std::uint32_t asn = 0;
  AsTier tier = AsTier::kStub;
  std::uint16_t country = kNoCountry;  ///< index into World::regimes
  std::uint32_t prefix_base = 0;       ///< network address (host byte order)
  std::uint8_t prefix_len = 32;
  sim::NodeId first_router = sim::kInvalidNode;
  std::uint32_t router_count = 0;
  std::uint64_t first_endpoint = 0;  ///< index into the endpoint arrays
  std::uint64_t endpoint_count = 0;
};

/// A censorship device drawn by the regime phase; materialized into a
/// censor::Device by instantiate().
struct DevicePlan {
  sim::NodeId node = sim::kInvalidNode;  ///< border router it deploys at
  std::string vendor;
  bool on_path = false;
  /// Management-plane exposure funnel (§5.2): 0 = vendor banners,
  /// 1 = no open services, 2 = generic (unfingerprideable) banners.
  std::uint8_t service_mode = 0;
  std::uint32_t as_index = 0;  ///< index into World::ases
  std::uint16_t country = kNoCountry;
};

class World {
 public:
  WorldSpec spec;
  std::uint64_t seed = 1;
  std::shared_ptr<const sim::CompactTopology> topology;
  geo::IpMetadataDb geodb;
  /// Effective regimes (spec.effective_countries(), frozen at generation).
  std::vector<CountryRegimeSpec> regimes;
  /// ases[0] is always the measurement AS hosting the client.
  std::vector<GeneratedAs> ases;

  // Endpoint population, structure-of-arrays, ascending IP order.
  std::vector<std::uint32_t> endpoint_ips;
  std::vector<sim::NodeId> endpoint_nodes;      ///< the endpoint's host node
  std::vector<std::uint32_t> endpoint_as;       ///< index into ases
  std::vector<std::uint16_t> endpoint_template; ///< index into templates
  /// Shared immutable web-server profiles the endpoints draw from.
  std::vector<std::shared_ptr<const sim::EndpointProfile>> templates;

  std::vector<DevicePlan> devices;
  sim::NodeId client = sim::kInvalidNode;

  /// Digest over everything the world contains (topology, prefix plan,
  /// endpoint arrays, template content, device plans). Equal digests ⇔
  /// byte-identical worlds; campaigns mix it into cache keys.
  std::uint64_t fingerprint() const;

  /// Resident bytes of the world's arrays (topology + endpoint SoA +
  /// template profiles; geodb routes approximated).
  std::size_t bytes() const;

  struct Stats {
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t endpoints = 0;
    std::size_t ases = 0;
    std::size_t devices = 0;
    std::size_t bytes = 0;
  };
  Stats stats() const;
};

/// Generate a world from (spec, seed). Single-threaded and deterministic:
/// the result is byte-identical regardless of caller threading. When
/// `observer` is non-null, emits worldgen.* gauges and per-phase tracer
/// spans (span durations encode item counts, so traces stay run-invariant).
World generate(const WorldSpec& spec, std::uint64_t seed,
               obs::Observer* observer = nullptr);

/// A runnable instantiation of a World, shaped like the hand-built
/// scenarios so pipeline/campaign code paths apply unchanged.
struct GeneratedScenario {
  std::unique_ptr<sim::Network> network;
  sim::NodeId client = sim::kInvalidNode;
  std::vector<net::Ipv4Address> endpoints;
  std::vector<std::string> http_test_domains;
  std::vector<std::string> https_test_domains;
  std::string control_domain;
  std::vector<scenario::DeviceTruth> devices;
};

/// Materialize the network: the shared topology, every endpoint
/// registered against its shared profile template (ascending-IP bulk
/// load), regime devices deployed with vendor rule sets over the spec's
/// test domains. `max_endpoints` < 0 registers the full population.
GeneratedScenario instantiate(const World& world, std::int64_t max_endpoints = -1);

}  // namespace cen::worldgen

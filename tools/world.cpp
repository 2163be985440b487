// cen world — generate and inspect synthetic worlds (docs/WORLDGEN.md).
//
// Generates the world of a built-in tier (default 1k) or a WorldSpec
// file and prints its stats and fingerprint; --dump writes the whole world
// as JSON and --spec-json the canonical spec, which `cen campaign --world`
// and `cen world --spec` read back. The same (spec, seed) always prints
// the same fingerprint: that digest is what campaign caches key on.
#include <cinttypes>

#include "cli.hpp"
#include "core/json.hpp"
#include "worldgen/generate.hpp"
#include "worldgen/spec.hpp"

using namespace cen;
using namespace cli;

namespace {

std::string stats_json(const worldgen::World& world) {
  const worldgen::World::Stats st = world.stats();
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("cenworld");
  w.key("world").value(world.spec.name);
  w.key("seed").value(world.seed);
  w.key("fingerprint").value(world.fingerprint());
  w.key("nodes").value(static_cast<std::uint64_t>(st.nodes));
  w.key("links").value(static_cast<std::uint64_t>(st.links));
  w.key("endpoints").value(static_cast<std::uint64_t>(st.endpoints));
  w.key("ases").value(static_cast<std::uint64_t>(st.ases));
  w.key("devices").value(static_cast<std::uint64_t>(st.devices));
  w.key("bytes").value(static_cast<std::uint64_t>(st.bytes));
  w.key("bytes_per_endpoint")
      .value(st.endpoints == 0
                 ? 0.0
                 : static_cast<double>(st.bytes) / static_cast<double>(st.endpoints));
  w.end_object();
  return std::move(w).str();
}

std::string dump_json(const worldgen::World& world) {
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("cenworld");
  w.key("seed").value(world.seed);
  w.key("fingerprint").value(world.fingerprint());
  w.key("spec").raw_value(worldgen::to_json(world.spec));
  w.key("stats").raw_value(stats_json(world));
  w.key("ases").begin_array();
  for (const worldgen::GeneratedAs& as : world.ases) {
    w.begin_object();
    w.key("asn").value(static_cast<std::uint64_t>(as.asn));
    w.key("tier").value(worldgen::as_tier_name(as.tier));
    if (as.country != worldgen::kNoCountry) {
      w.key("country").value(world.regimes[as.country].code);
    }
    w.key("prefix").value(net::Ipv4Address(as.prefix_base).str() + "/" +
                          std::to_string(as.prefix_len));
    w.key("routers").value(static_cast<std::uint64_t>(as.router_count));
    w.key("endpoints").value(as.endpoint_count);
    w.end_object();
  }
  w.end_array();
  w.key("devices").begin_array();
  for (const worldgen::DevicePlan& d : world.devices) {
    w.begin_object();
    w.key("vendor").value(d.vendor);
    w.key("on_path").value(d.on_path);
    w.key("service_mode").value(static_cast<int>(d.service_mode));
    w.key("asn").value(static_cast<std::uint64_t>(world.ases[d.as_index].asn));
    if (d.country != worldgen::kNoCountry) {
      w.key("country").value(world.regimes[d.country].code);
    }
    w.key("node_ip").value(world.topology->ip(d.node).str());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace

int cli::run_world(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string tier = args.get("tier", "1k");
  std::optional<worldgen::WorldSpec> spec = worldgen::WorldSpec::tier(tier);
  if (args.has("spec")) {
    spec = load_spec(args.get("spec"), worldgen::spec_from_json);
  } else if (!spec) {
    throw UsageError("unknown tier '" + tier + "' (expected 1k, 100k or 1m)");
  }
  const worldgen::World world =
      worldgen::generate(*spec, ctx.common.seed.value_or(1), ctx.observer);

  int rc = kExitOk;
  if (args.has("dump") && !write_file(args.get("dump"), dump_json(world))) rc = kExitRuntime;
  if (args.has("spec-json") && !write_file(args.get("spec-json"), worldgen::to_json(world.spec))) {
    rc = kExitRuntime;
  }
  if (ctx.common.json) {
    std::printf("%s\n", stats_json(world).c_str());
  } else {
    const worldgen::World::Stats st = world.stats();
    std::printf("world '%s' seed %" PRIu64 " fingerprint %016" PRIx64 "\n",
                world.spec.name.c_str(), world.seed, world.fingerprint());
    std::printf("  %zu nodes, %zu links, %zu endpoints across %zu ASes\n",
                st.nodes, st.links, st.endpoints, st.ases);
    std::printf("  %zu censorship devices; %zu bytes (%.1f bytes/endpoint)\n",
                st.devices, st.bytes,
                st.endpoints == 0 ? 0.0
                                  : static_cast<double>(st.bytes) /
                                        static_cast<double>(st.endpoints));
  }
  return rc;
}

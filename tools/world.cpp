// cen world — generate and inspect synthetic worlds (docs/WORLDGEN.md).
//
// Generates the world described by the built-in tier (default 1k) or a
// WorldSpec JSON file, then:
//   (default / --stats)  prints generation stats + the world fingerprint;
//   --dump FILE          writes a JSON dump (spec, stats, per-AS table,
//                        device plans) for offline inspection;
//   --spec-json FILE     writes the canonical spec JSON (the file
//                        cen campaign --world and --spec accept back).
//
// The same (spec, seed) always prints the same fingerprint — that digest
// is what campaign caches key on.
//
// Exit codes: 0 ok, 1 I/O failure, 2 usage error.
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
  const std::string dump = args.output_path("dump");
  const std::string spec_json = args.output_path("spec-json");
  worldgen::WorldSpec spec;
  if (args.has("spec")) {
    std::string error;
    auto loaded = worldgen::load_spec_file(args.get("spec"), &error);
    if (!loaded) throw UsageError("bad spec " + args.get("spec") + ": " + error);
    spec = std::move(*loaded);
  } else {
    const std::string tier = args.get("tier", "1k");
    auto built_in = worldgen::WorldSpec::tier(tier);
    if (!built_in) throw UsageError("unknown tier '" + tier + "' (expected 1k, 100k or 1m)");
    spec = std::move(*built_in);
  }
  const std::uint64_t seed = args.get_u64("seed", 1);

  const worldgen::World world = worldgen::generate(spec, seed, ctx.observer);

  int rc = kExitOk;
  if (!dump.empty() && !write_file(dump, dump_json(world))) rc = kExitRuntime;
  if (!spec_json.empty() && !write_file(spec_json, worldgen::to_json(world.spec))) {
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

// cen probe — locate potential censorship devices with CenTrace, then
// port-scan and banner-grab them; --ip probes one IP directly.
#include "cli.hpp"

using namespace cen;
using namespace cli;

namespace {

void print_text(const probe::DeviceProbeReport& r) {
  std::printf("%-15s ports=%zu vendor=%s\n", r.ip.str().c_str(), r.open_ports.size(),
              r.vendor ? r.vendor->c_str() : "(unidentified)");
  for (const probe::BannerGrab& grab : r.banners) {
    std::printf("    %5u/%-6s %s\n", grab.port, grab.protocol.c_str(),
                grab.banner.c_str());
  }
}

}  // namespace

int cli::run_probe(const Context& ctx) {
  const Args& args = ctx.args;
  scenario::CountryScenario s = make_site(ctx);

  if (args.has("ip")) {
    auto ip = net::Ipv4Address::parse(args.get("ip"));
    if (!ip) throw UsageError("malformed IP: " + args.get("ip"));
    const probe::DeviceProbeReport r =
        probe::run(*s.network, probe::ProbeRunOptions{.ip = *ip, .seed = ctx.common.seed},
                   ctx.observer);
    if (ctx.common.json) {
      std::printf("%s\n", report::to_json(r).c_str());
    } else {
      print_text(r);
    }
    return kExitOk;
  }

  scenario::PipelineOptions o = pipeline_options(ctx);
  o.run_fuzz = false;
  scenario::PipelineResult result = run_country_pipeline(s, o);
  std::fprintf(stderr, "CenTrace: %zu measurements, %zu blocked, %zu device IPs\n",
               result.remote_traces.size(), result.blocked_remote(),
               result.device_probes.size());
  for (const auto& [ip, r] : result.device_probes) {
    if (ctx.common.json) {
      std::printf("%s\n", report::to_json(r).c_str());
    } else {
      print_text(r);
    }
  }
  return kExitOk;
}

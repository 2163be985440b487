// cenprobe — locate potential censorship devices with CenTrace, then
// port-scan and banner-grab them.
//
//   cenprobe --country KZ [--reps 5] [common flags]
//   cenprobe --country KZ --ip 10.0.80.1 [--json]    (probe one IP directly)
#include "cli_common.hpp"

using namespace cen;

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

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  const cli::CommonOptions common = cli::parse_common(args);
  if (args.has("help") || !args.has("country")) {
    std::printf(
        "usage: cenprobe --country AZ|BY|KZ|RU [--reps N] [--ip A.B.C.D]\n"
        "                [common flags]\n%s",
        cli::kCommonUsage);
    return args.has("help") ? cli::kExitOk : cli::kExitUsage;
  }

  scenario::CountryScenario s =
      scenario::make_country(cli::parse_country(args.get("country")), common.scale);
  s.network->set_fault_plan(common.faults);

  obs::Observer observer;
  obs::Observer* obs_ptr = cli::wants_observer(args) ? &observer : nullptr;

  if (args.has("ip")) {
    auto ip = net::Ipv4Address::parse(args.get("ip"));
    if (!ip) {
      std::fprintf(stderr, "malformed IP: %s\n", args.get("ip").c_str());
      return cli::kExitUsage;
    }
    probe::DeviceProbeReport r =
        probe::run(*s.network, probe::ProbeRunOptions{.ip = *ip, .common = {}}, obs_ptr);
    if (common.json) {
      std::printf("%s\n", report::to_json(r).c_str());
    } else {
      print_text(r);
    }
    return obs_ptr != nullptr ? cli::write_observability(args, observer) : 0;
  }

  scenario::PipelineOptions o;
  o.centrace_repetitions = args.get_int("reps", 5);
  o.run_fuzz = false;
  o.threads = common.threads;
  o.observer = obs_ptr;
  scenario::PipelineResult result = run_country_pipeline(s, o);
  std::fprintf(stderr, "CenTrace: %zu measurements, %zu blocked, %zu device IPs\n",
               result.remote_traces.size(), result.blocked_remote(),
               result.device_probes.size());
  for (const auto& [ip, r] : result.device_probes) {
    if (common.json) {
      std::printf("%s\n", report::to_json(r).c_str());
    } else {
      print_text(r);
    }
  }
  return obs_ptr != nullptr ? cli::write_observability(args, observer) : 0;
}

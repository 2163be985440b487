#include "cenprobe/fingerprints.hpp"

#include "core/strings.hpp"
#include "obs/observer.hpp"

namespace cen::probe {

const std::vector<Fingerprint>& fingerprint_db() {
  static const std::vector<Fingerprint> kDb = {
      {"https", "fortigate", "Fortinet"},
      {"ssh", "fortissh", "Fortinet"},
      {"", "fortinet", "Fortinet"},
      {"ssh", "cisco", "Cisco"},
      {"telnet", "user access verification", "Cisco"},
      {"", "kerio control", "Kerio"},
      {"", "kerio", "Kerio"},
      {"https", "pan-os", "PaloAlto"},
      {"ssh", "paloalto", "PaloAlto"},
      {"", "palo alto", "PaloAlto"},
      {"http", "ddos-guard", "DDoSGuard"},
      {"ftp", "mikrotik", "MikroTik"},
      {"ssh", "rosssh", "MikroTik"},
      {"telnet", "routeros", "MikroTik"},
      {"", "kaspersky", "Kaspersky"},
      {"http", "netsweeper", "Netsweeper"},
      {"snmp", "netsweeper", "Netsweeper"},
      {"", "blue coat", "BlueCoat"},
      {"ssh", "packetlogic", "Sandvine"},
  };
  return kDb;
}

std::optional<std::string> match_fingerprint(const BannerGrab& grab) {
  std::string banner = ascii_lower(grab.banner);
  for (const Fingerprint& fp : fingerprint_db()) {
    if (!fp.protocol.empty() && fp.protocol != grab.protocol) continue;
    if (banner.find(fp.pattern) != std::string::npos) return fp.vendor;
  }
  return std::nullopt;
}

namespace {

DeviceProbeReport probe_device_impl(const sim::Network& network, net::Ipv4Address ip) {
  DeviceProbeReport report;
  report.ip = ip;
  obs::Observer* o = network.observer();
  obs::ScopedSpan span(o != nullptr ? &o->tracer() : nullptr, &network.clock(),
                       "cenprobe:" + ip.str(), "cenprobe");
  if (o != nullptr) o->tools().devices_probed->inc();
  PortScanResult scan = scan_ports(network, ip);
  report.open_ports = scan.open_ports;
  report.banners = grab_banners(network, scan);
  report.stack = network.probe_stack(ip);
  for (const BannerGrab& grab : report.banners) {
    if (auto vendor = match_fingerprint(grab)) {
      report.vendor = vendor;
      if (o != nullptr) {
        o->tools().banner_matches->inc();
        o->journal().record(network.now(), "banner_match",
                            ip.str() + " " + grab.protocol + " -> " + *vendor);
      }
      break;
    }
  }
  return report;
}

}  // namespace

DeviceProbeReport run(sim::Network& network, const ProbeRunOptions& options,
                      obs::Observer* observer) {
  sim::ScopedObserver guard(network, observer);
  if (options.seed) network.reset_epoch(*options.seed);
  return probe_device_impl(network, options.ip);
}

}  // namespace cen::probe

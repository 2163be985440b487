#include "scenario/world.hpp"

#include "scenario/builder.hpp"
#include "worldgen/generate.hpp"

namespace cen::scenario {

censor::DeviceConfig world_device_config(const std::string& vendor, const std::string& id) {
  censor::DeviceConfig cfg = censor::make_vendor_device(vendor, id);
  cfg.action = censor::BlockAction::kBlockpage;
  cfg.tls_action = censor::BlockAction::kRstInject;
  if (vendor == "Sandvine") {
    cfg.blockpage_html =
        "<html><body><h1>Blocked</h1><p>This content is not available. "
        "Filtering by Sandvine PacketLogic.</p></body></html>";
  } else if (vendor == "Kerio") {
    cfg.blockpage_html =
        "<html><body><h1>Access denied</h1><p>Denied by Kerio Control web "
        "filter policy.</p></body></html>";
  } else if (vendor == "PaloAlto") {
    cfg.blockpage_html =
        "<html><body><h1>Web Page Blocked</h1><p>Access to the web page was "
        "blocked by Palo Alto Networks URL filtering.</p></body></html>";
  } else if (vendor == "DDoSGuard") {
    cfg.blockpage_html =
        "<html><body><h1>403</h1><p>Blocked by DDoS-Guard.</p></body></html>";
  }
  return cfg;
}

WorldScenario make_world(Scale scale, std::uint64_t seed) {
  WorldScenario s;
  s.http_test_domains = {"www.blockedexample.com"};
  s.https_test_domains = {"www.blockedexample.org"};

  Builder b(seed);
  auto meas = b.make_as(64500, "MEASUREMENT-US", "US");
  sim::NodeId client = b.host(meas, "client");
  sim::NodeId us_r1 = b.router(meas, "us-r1");
  b.link(client, us_r1);
  auto transit = b.make_as(3356, "LUMEN", "US");
  sim::NodeId transit_r1 = b.router(transit, "r1");
  sim::NodeId transit_r2 = b.router(transit, "r2");
  b.link(us_r1, transit_r1);
  b.link(transit_r1, transit_r2);

  const int n = scale == Scale::kFull ? 76 : 20;
  static const char* kCountries[] = {"IN", "ID", "TR", "EG", "TH", "PK", "MX", "VN",
                                     "SA", "AE", "BD", "MY"};
  static const char* kVendors[] = {"Fortinet",   "Kerio",    "PaloAlto", "DDoSGuard",
                                   "Netsweeper", "BlueCoat", "Sandvine"};

  struct Pending {
    sim::NodeId at;
    censor::DeviceConfig cfg;
    std::uint32_t asn;
  };
  std::vector<Pending> pending_devices;
  std::vector<std::pair<sim::NodeId, sim::EndpointProfile>> pending_endpoints;

  const std::vector<std::string> all_domains = {s.http_test_domains[0],
                                                s.https_test_domains[0]};
  for (int i = 0; i < n; ++i) {
    std::uint32_t asn = 45000 + static_cast<std::uint32_t>(i);
    std::string cc = kCountries[i % 12];
    Builder::AsHandle h = b.make_as(asn, "ORG-" + std::to_string(i), cc);
    sim::NodeId r = b.backbone_router(h, "r1");  // devices stay localizable
    b.link(transit_r2, r);
    std::string org = "host" + std::to_string(i) + ".org-" + std::to_string(i) + ".net";
    Builder::PlacedEndpoint placed = b.org_host(h, r, "ep", org);
    pending_endpoints.emplace_back(placed.node, std::move(placed.profile));
    s.endpoints.push_back(b.topology().ip(placed.node));

    const std::string vendor = kVendors[i % 7];
    censor::DeviceConfig cfg =
        world_device_config(vendor, "world-" + std::to_string(i) + "-" + vendor);
    cfg.http_rules = make_rules(vendor, all_domains);
    cfg.sni_rules = make_rules(vendor, all_domains);

    // Funnel composition (§5.2/§5.3): ~7% on-path taps, then of the
    // in-path devices ~13% expose no services, ~48% only generic banners,
    // and the rest keep their identifying vendor banners.
    if (i % 15 == 14) {
      cfg.on_path = true;
      cfg.services.clear();
    } else if (i % 8 == 7) {
      cfg.services.clear();  // in-path, no open ports
    } else if (i % 2 == 1) {
      cfg.services = {{22, "ssh", "SSH-2.0-OpenSSH_7.9"},
                      {23, "telnet", "login:"}};  // generic, unfingerprideable
    }
    pending_devices.push_back({r, std::move(cfg), asn});
  }

  s.network = b.finish(seed ^ 0xE1);
  for (auto& [node, profile] : pending_endpoints) {
    s.network->add_endpoint(node, std::move(profile));
  }
  for (Pending& p : pending_devices) {
    std::shared_ptr<censor::Device> dev = deploy(*s.network, p.at, std::move(p.cfg));
    DeviceTruth truth;
    truth.device_id = dev->config().id;
    truth.vendor = dev->config().vendor;
    truth.on_path = dev->config().on_path;
    truth.asn = p.asn;
    if (dev->config().mgmt_ip) truth.mgmt_ip = *dev->config().mgmt_ip;
    s.devices.push_back(std::move(truth));
  }
  s.client = client;
  return s;
}

WorldScenario make_world(const worldgen::WorldSpec& spec, std::uint64_t seed) {
  worldgen::World world = worldgen::generate(spec, seed);
  worldgen::GeneratedScenario gen = worldgen::instantiate(world);
  WorldScenario s;
  s.network = std::move(gen.network);
  s.client = gen.client;
  s.endpoints = std::move(gen.endpoints);
  s.http_test_domains = std::move(gen.http_test_domains);
  s.https_test_domains = std::move(gen.https_test_domains);
  s.control_domain = std::move(gen.control_domain);
  s.devices = std::move(gen.devices);
  return s;
}

}  // namespace cen::scenario

#include "scenario/country.hpp"

#include <algorithm>
#include <cctype>

#include "scenario/builder.hpp"

namespace cen::scenario {

std::vector<Country> all_countries() {
  return {Country::kAZ, Country::kBY, Country::kKZ, Country::kRU};
}

namespace {

std::string slug(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '-') {
      out.push_back('-');
    }
  }
  return out;
}

/// Construction context: a Builder plus everything that must wait until the
/// Network object exists (endpoint profiles, device deployments).
struct Ctx {
  explicit Ctx(std::uint64_t seed) : b(seed) {}

  Builder b;
  Builder::AsHandle meas = b.make_as(64500, "MEASUREMENT-US", "US");
  Builder::AsHandle hosting = b.make_as(64501, "HOSTING-US", "US");
  sim::NodeId client_us = b.host(meas, "client");
  sim::NodeId us_r1 = b.backbone_router(meas, "us-r1");
  sim::NodeId hosting_r = b.backbone_router(hosting, "hosting-r1");

  struct PendingEndpoint {
    sim::NodeId node;
    sim::EndpointProfile profile;
  };
  std::vector<PendingEndpoint> pending_endpoints;

  struct PendingDevice {
    sim::NodeId at;
    censor::DeviceConfig config;
    std::uint32_t asn = 0;
  };
  std::vector<PendingDevice> pending_devices;

  void base_links() {
    b.link(client_us, us_r1);
    b.link(us_r1, hosting_r);
  }

  /// Foreign web server genuinely hosting `domain` (target of in-country
  /// measurements; tolerant servers enable full circumvention for padded /
  /// mutated hostnames).
  net::Ipv4Address foreign_server(const std::string& domain, bool tolerant) {
    sim::NodeId node = b.host(hosting, "www-" + slug(domain));
    b.link(hosting_r, node);
    sim::EndpointProfile profile;
    profile.hosted_domains = {domain};
    profile.serves_subdomains = true;
    profile.strict_http = !tolerant;
    profile.default_vhost_for_unknown = tolerant;
    pending_endpoints.push_back({node, std::move(profile)});
    return b.topology().ip(node);
  }

  /// Infrastructure endpoint in `as` with a randomized web profile; ~8%
  /// carry a local org filter in front (the "At E" blocking population).
  net::Ipv4Address infra_endpoint(Builder::AsHandle& as, sim::NodeId attach_to, int index,
                                  const std::vector<std::string>& filter_domains) {
    std::string org = "host" + std::to_string(index) + "." + slug(as.name) + "." +
                      (as.country == "RU" ? "ru" : as.country == "BY" ? "by"
                                                : as.country == "KZ" ? "kz" : "az");
    Builder::PlacedEndpoint placed =
        b.org_host(as, attach_to, "ep" + std::to_string(index), org);
    sim::NodeId node = placed.node;
    sim::EndpointProfile profile = std::move(placed.profile);
    if (b.rng().chance(0.05) && !filter_domains.empty()) {
      profile.local_filter = b.rng().chance(0.5) ? sim::LocalFilterAction::kDrop
                                                 : sim::LocalFilterAction::kRst;
      censor::RuleSet rules;
      // Org firewalls cover a few categories, not the whole national list.
      for (std::size_t d = 0; d < filter_domains.size(); d += 3) {
        rules.add(registrable(filter_domains[d]), censor::MatchStyle::kSuffix);
      }
      profile.local_filter_rules = std::move(rules);
    }
    pending_endpoints.push_back({node, std::move(profile)});
    return b.topology().ip(node);
  }

  /// Queue a vendor device deployment at `at` with the given rule domains.
  void device(sim::NodeId at, const std::string& vendor, const std::string& id,
              const std::vector<std::string>& rule_domains, std::uint32_t asn,
              bool strip_services = false) {
    // A device is only probeable if CenTrace can localize it, which needs
    // the adjacent router to answer TTL exhaustion — ensure it does.
    b.topology().force_responds_icmp(at);
    censor::DeviceConfig cfg = censor::make_vendor_device(vendor, id);
    cfg.http_rules = make_rules(vendor, rule_domains);
    cfg.sni_rules = make_rules(vendor, rule_domains);
    if (strip_services) cfg.services.clear();
    pending_devices.push_back({at, std::move(cfg), asn});
  }

  /// Finalize: build the Network, register endpoints and deploy devices.
  std::unique_ptr<sim::Network> finish(CountryScenario& scenario, std::uint64_t seed) {
    auto network = b.finish(seed);
    for (PendingEndpoint& pe : pending_endpoints) {
      network->add_endpoint(pe.node, std::move(pe.profile));
    }
    for (PendingDevice& pd : pending_devices) {
      bool on_path = pd.config.on_path;
      std::shared_ptr<censor::Device> dev = deploy(*network, pd.at, std::move(pd.config));
      DeviceTruth truth;
      truth.device_id = dev->config().id;
      truth.vendor = dev->config().vendor;
      truth.on_path = on_path;
      truth.asn = pd.asn;
      if (dev->config().mgmt_ip) truth.mgmt_ip = *dev->config().mgmt_ip;
      scenario.devices.push_back(std::move(truth));
    }
    return network;
  }
};

std::vector<std::string> concat(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) {
  std::vector<std::string> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::vector<std::string> pick(const std::vector<std::string>& v,
                              std::initializer_list<std::size_t> idx) {
  std::vector<std::string> out;
  for (std::size_t i : idx) out.push_back(v.at(i));
  return out;
}

// ---------------------------------------------------------------------------
// Azerbaijan: centralized in-path drops at Delta Telecom's two border links
// from Telia; Fortinet / Palo Alto org-level deployments deeper in.
// ---------------------------------------------------------------------------
CountryScenario make_az(Scale scale, std::uint64_t seed) {
  CountryScenario s;
  s.country = Country::kAZ;
  s.http_test_domains = {"www.azadliq.info", "www.meydan.tv", "www.abzas.net",
                         "www.rferl.org", "www.ocmedia.org"};
  s.https_test_domains = {"www.azadliq.org", "www.voanews.com", "www.hrw.org",
                          "www.occrp.org", "www.islamaz.az"};

  Ctx ctx(seed);
  ctx.base_links();
  Builder& b = ctx.b;

  auto telia = b.make_as(1299, "TELIA", "SE");
  sim::NodeId telia_r1 = b.backbone_router(telia, "r1");
  sim::NodeId telia_r2 = b.backbone_router(telia, "r2");
  b.link(ctx.us_r1, telia_r1);
  b.link(telia_r1, telia_r2);

  auto delta = b.make_as(29049, "DELTA-TELECOM", "AZ");
  sim::NodeId border1 = b.backbone_router(delta, "border1");
  sim::NodeId border2 = b.backbone_router(delta, "border2");
  sim::NodeId core = b.backbone_router(delta, "core");
  b.link(telia_r2, border1);
  b.link(telia_r2, border2);
  b.link(border1, core);
  b.link(border2, core);

  const std::vector<std::pair<std::uint32_t, std::string>> ep_ases = {
      {34876, "AZTELEKOM"}, {39232, "AZERFON"},  {39015, "UNINET-AZ"},
      {31721, "BAKTELECOM"}, {29580, "CITYNET-AZ"}, {200665, "AZINTELECOM"}};
  std::vector<Builder::AsHandle> handles;
  std::vector<sim::NodeId> as_routers;
  for (const auto& [asn, name] : ep_ases) {
    Builder::AsHandle h = b.make_as(asn, name, "AZ");
    sim::NodeId r = b.router(h, "r1");
    b.link(core, r);
    handles.push_back(h);
    as_routers.push_back(r);
  }

  const std::vector<std::string> all_domains =
      concat(s.http_test_domains, s.https_test_domains);
  int n_endpoints = scale == Scale::kFull ? 29 : 6;
  for (int i = 0; i < n_endpoints; ++i) {
    std::size_t a = static_cast<std::size_t>(i) % handles.size();
    s.remote_endpoints.push_back(
        ctx.infra_endpoint(handles[a], as_routers[a], i, all_domains));
  }

  // The centralized blocklist at the border (the bulk of AZ blocking).
  std::vector<std::string> border_list =
      concat(pick(s.http_test_domains, {0, 1}), pick(s.https_test_domains, {0, 1}));
  ctx.device(border1, "Cisco", "az-delta-cisco-1", border_list, 29049);
  ctx.device(border2, "Cisco", "az-delta-cisco-2", border_list, 29049);
  // Org-level deployments for the remaining domains.
  std::vector<std::string> org_list =
      concat(pick(s.http_test_domains, {3}), pick(s.https_test_domains, {3}));
  ctx.device(as_routers[5], "Fortinet", "az-fortinet-1", org_list, 200665);
  ctx.device(as_routers[4], "Fortinet", "az-fortinet-2", org_list, 29580,
             /*strip_services=*/true);  // blockpage-only deployment
  std::vector<std::string> pa_list =
      concat(pick(s.http_test_domains, {4}), pick(s.https_test_domains, {4}));
  ctx.device(as_routers[1], "PaloAlto", "az-paloalto-1", pa_list, 39232);

  // In-country vantage point inside Delta Telecom (paper: device 2 hops away).
  sim::NodeId client_az = b.host(delta, "vp-az");
  b.link(client_az, core);

  for (const std::string& d : all_domains) {
    s.foreign_endpoints.push_back(ctx.foreign_server(d, b.rng().chance(0.6)));
  }

  s.network = ctx.finish(s, seed ^ 0xA2);
  s.remote_client = ctx.client_us;
  s.incountry_client = client_az;
  return s;
}

// ---------------------------------------------------------------------------
// Belarus: on-path RST injection in the endpoint ASes (Beltelecom et al.),
// plus an upstream COGENT device dropping bridges.torproject.org before
// traffic enters the country.
// ---------------------------------------------------------------------------
CountryScenario make_by(Scale scale, std::uint64_t seed) {
  CountryScenario s;
  s.country = Country::kBY;
  s.http_test_domains = {"www.charter97.org", "spring96.org", "belsat.eu",
                         "www.svaboda.org", "bridges.torproject.org"};
  s.https_test_domains = {"www.zerkalo.io", "news.zerkalo.io", "nashaniva.com",
                          "euroradio.fm", "reform.by"};

  Ctx ctx(seed);
  ctx.base_links();
  Builder& b = ctx.b;

  auto cogent = b.make_as(174, "COGENT", "US");
  sim::NodeId cogent_r1 = b.backbone_router(cogent, "r1");
  sim::NodeId cogent_r2 = b.backbone_router(cogent, "r2");
  b.link(ctx.us_r1, cogent_r1);
  b.link(cogent_r1, cogent_r2);

  auto belt = b.make_as(6697, "BELTELECOM", "BY");
  sim::NodeId by_border = b.backbone_router(belt, "border");
  sim::NodeId belt_core = b.backbone_router(belt, "core");
  b.link(cogent_r2, by_border);
  b.link(by_border, belt_core);

  // Upstream anomaly: Tor bridges dropped inside COGENT (§4.3).
  ctx.device(cogent_r2, "Unknown", "us-cogent-filter-1", {"bridges.torproject.org"}, 174);

  const int n_ases = 19;
  std::vector<Builder::AsHandle> handles;
  std::vector<sim::NodeId> as_routers;
  for (int i = 0; i < n_ases; ++i) {
    if (i == 0) {
      // Beltelecom hosts endpoints itself behind a dedicated edge router.
      handles.push_back(belt);
      sim::NodeId r = b.backbone_router(belt, "edge");
      b.link(belt_core, r);
      as_routers.push_back(r);
      continue;
    }
    Builder::AsHandle h =
        b.make_as(20852 + static_cast<std::uint32_t>(i), "BY-ISP-" + std::to_string(i), "BY");
    sim::NodeId r = b.router(h, "r1");
    b.link(belt_core, r);
    handles.push_back(h);
    as_routers.push_back(r);
  }

  const std::vector<std::string> all_domains =
      concat(s.http_test_domains, s.https_test_domains);
  // 10 of the 19 ASes run the national on-path DPI, each covering ~6 of
  // the 10 test domains — reproducing BY's ~28% blocked-CT rate.
  std::vector<std::string> dpi_list =
      concat(pick(s.http_test_domains, {0, 1}), pick(s.https_test_domains, {0, 1}));
  for (int i = 0; i < n_ases; i += 2) {
    std::uint32_t asn = i == 0 ? 6697u : 20852 + static_cast<std::uint32_t>(i);
    ctx.device(as_routers[static_cast<std::size_t>(i)], "BY-DPI",
               "by-dpi-" + std::to_string(i), dpi_list, asn);
  }

  int n_endpoints = scale == Scale::kFull ? 123 : 16;
  for (int i = 0; i < n_endpoints; ++i) {
    std::size_t a = static_cast<std::size_t>(i) % handles.size();
    s.remote_endpoints.push_back(
        ctx.infra_endpoint(handles[a], as_routers[a], i, all_domains));
  }

  for (const std::string& d : all_domains) {
    s.foreign_endpoints.push_back(ctx.foreign_server(d, b.rng().chance(0.6)));
  }

  s.network = ctx.finish(s, seed ^ 0xB4);
  s.remote_client = ctx.client_us;
  // No in-country vantage point in BY (Table 1).
  return s;
}

// ---------------------------------------------------------------------------
// Kazakhstan: in-path drops at JSC-Kazakhtelecom's borders; about a third of
// remote paths transit Russia (Megafon → Kvant-telekom) and are censored
// there. Kerio / MikroTik / Fortinet regional deployments.
// ---------------------------------------------------------------------------
CountryScenario make_kz(Scale scale, std::uint64_t seed) {
  CountryScenario s;
  s.country = Country::kKZ;
  s.http_test_domains = {"www.pokerstars.com", "www.dailymotion.com", "www.azattyq.org",
                         "www.tumblr.com", "archive.org"};
  s.https_test_domains = {"www.pokerstars.eu", "protonmail.com", "www.ptt.cc",
                          "rutracker.org", "telegra.ph"};

  Ctx ctx(seed);
  ctx.base_links();
  Builder& b = ctx.b;

  auto telia = b.make_as(1299, "TELIA", "SE");
  sim::NodeId telia_r1 = b.backbone_router(telia, "r1");
  sim::NodeId telia_r2 = b.backbone_router(telia, "r2");
  b.link(ctx.us_r1, telia_r1);
  b.link(telia_r1, telia_r2);

  auto megafon = b.make_as(31133, "PJSC-MEGAFON", "RU");
  sim::NodeId megafon_r1 = b.backbone_router(megafon, "r1");
  auto kvant = b.make_as(43727, "KVANT-TELEKOM", "RU");
  sim::NodeId kvant_r1 = b.backbone_router(kvant, "r1");
  b.link(telia_r2, megafon_r1);
  b.link(megafon_r1, kvant_r1);

  auto kaztel = b.make_as(9198, "JSC-KAZAKHTELECOM", "KZ");
  sim::NodeId kz_border1 = b.backbone_router(kaztel, "border1");
  sim::NodeId kz_border2 = b.backbone_router(kaztel, "border2");
  sim::NodeId kz_core1 = b.backbone_router(kaztel, "core1");
  sim::NodeId kz_core2 = b.backbone_router(kaztel, "core2");
  b.link(telia_r2, kz_border1);
  b.link(kz_border1, kz_core1);
  b.link(kvant_r1, kz_border2);
  b.link(kz_border2, kz_core2);

  const std::vector<std::string> all_domains =
      concat(s.http_test_domains, s.https_test_domains);

  // Russian transit censorship (extraterritorial blocking of KZ traffic).
  std::vector<std::string> ru_transit_list =
      concat(pick(s.http_test_domains, {0, 1, 3}), pick(s.https_test_domains, {0, 3, 4}));
  ctx.device(kvant_r1, "TSPU", "ru-kvant-tspu-1", ru_transit_list, 43727);

  // The national blocklist at Kazakhtelecom's borders.
  std::vector<std::string> border_list =
      concat(pick(s.http_test_domains, {0, 1, 2}), pick(s.https_test_domains, {0, 1, 2}));
  ctx.device(kz_border1, "Cisco", "kz-kaztel-cisco-1", border_list, 9198);
  ctx.device(kz_border2, "Cisco", "kz-kaztel-cisco-2", border_list, 9198);

  const int n_ases = 28;
  std::vector<Builder::AsHandle> handles;
  std::vector<sim::NodeId> as_routers;
  for (int i = 0; i < n_ases; ++i) {
    Builder::AsHandle h =
        b.make_as(50482 + static_cast<std::uint32_t>(i), "KZ-ISP-" + std::to_string(i), "KZ");
    sim::NodeId r = b.router(h, "r1");
    // Roughly a third of the endpoint ASes are only reachable via the
    // Russian transit corridor.
    b.link(i % 3 == 2 ? kz_core2 : kz_core1, r);
    handles.push_back(h);
    as_routers.push_back(r);
  }

  // Regional commercial deployments covering the remaining domains.
  std::vector<std::string> regional_list =
      concat(pick(s.http_test_domains, {3, 4}), pick(s.https_test_domains, {3, 4}));
  ctx.device(as_routers[0], "Kerio", "kz-kerio-1", regional_list, 50482);
  ctx.device(as_routers[3], "Kerio", "kz-kerio-2", regional_list, 50485);
  ctx.device(as_routers[6], "MikroTik", "kz-mikrotik-1", regional_list, 50488);
  ctx.device(as_routers[9], "Fortinet", "kz-fortinet-1", regional_list, 50491);
  ctx.device(as_routers[12], "Fortinet", "kz-fortinet-2", regional_list, 50494,
             /*strip_services=*/true);

  int n_endpoints = scale == Scale::kFull ? 95 : 12;
  for (int i = 0; i < n_endpoints; ++i) {
    std::size_t a = static_cast<std::size_t>(i) % handles.size();
    s.remote_endpoints.push_back(
        ctx.infra_endpoint(handles[a], as_routers[a], i, all_domains));
  }

  // In-country vantage point in a hosting provider downstream of
  // Kazakhtelecom (paper: device 3 hops away, in AS9198 not AS203087).
  auto hosting_kz = b.make_as(203087, "PS-KZ-HOSTING", "KZ");
  sim::NodeId hosting_kz_r = b.backbone_router(hosting_kz, "r1");
  sim::NodeId client_kz = b.host(hosting_kz, "vp-kz");
  b.link(hosting_kz_r, kz_core1);
  b.link(client_kz, hosting_kz_r);

  for (const std::string& d : all_domains) {
    // pokerstars/dailymotion-style tolerant servers make padded-hostname
    // evasion a full circumvention from the KZ vantage point (§6.3).
    s.foreign_endpoints.push_back(ctx.foreign_server(d, b.rng().chance(0.7)));
  }

  s.network = ctx.finish(s, seed ^ 0xC6);
  s.remote_client = ctx.client_us;
  s.incountry_client = client_kz;
  return s;
}

// ---------------------------------------------------------------------------
// Russia: decentralized censorship across many ISP ASes — TSPU drop boxes,
// TTL-copying RST injectors ("Past E"), and assorted commercial devices.
// ---------------------------------------------------------------------------
CountryScenario make_ru(Scale scale, std::uint64_t seed) {
  CountryScenario s;
  s.country = Country::kRU;
  s.http_test_domains = {"www.facebook.com", "twitter.com", "meduza.io",
                         "www.bbc.com", "navalny.com"};
  s.https_test_domains = {"www.instagram.com", "www.linkedin.com", "tvrain.ru",
                          "theins.ru", "www.currenttime.tv"};

  Ctx ctx(seed);
  ctx.base_links();
  Builder& b = ctx.b;

  auto telia = b.make_as(1299, "TELIA", "SE");
  sim::NodeId telia_r1 = b.backbone_router(telia, "r1");
  sim::NodeId telia_r2 = b.backbone_router(telia, "r2");
  b.link(ctx.us_r1, telia_r1);
  b.link(telia_r1, telia_r2);
  auto cogent = b.make_as(174, "COGENT", "US");
  sim::NodeId cogent_r1 = b.backbone_router(cogent, "r1");
  sim::NodeId cogent_r2 = b.backbone_router(cogent, "r2");
  b.link(ctx.us_r1, cogent_r1);
  b.link(cogent_r1, cogent_r2);

  auto msk_ix = b.make_as(8631, "MSK-IX", "RU");
  sim::NodeId ix1 = b.backbone_router(msk_ix, "ix1");
  sim::NodeId ix2 = b.backbone_router(msk_ix, "ix2");
  b.link(telia_r2, ix1);
  b.link(cogent_r2, ix1);
  b.link(telia_r2, ix2);
  b.link(cogent_r2, ix2);

  // The Kvant-telekom corridor also carries some RU traffic (the paper sees
  // the same dropping hops in both the KZ and RU datasets).
  auto megafon = b.make_as(31133, "PJSC-MEGAFON", "RU");
  sim::NodeId megafon_r1 = b.backbone_router(megafon, "r1");
  auto kvant = b.make_as(43727, "KVANT-TELEKOM", "RU");
  sim::NodeId kvant_r1 = b.backbone_router(kvant, "r1");
  b.link(telia_r2, megafon_r1);
  b.link(megafon_r1, kvant_r1);
  std::vector<std::string> kvant_list = {"www.pokerstars.com", "www.facebook.com",
                                         "www.linkedin.com"};
  ctx.device(kvant_r1, "TSPU", "ru-kvant-tspu-1", kvant_list, 43727);

  const std::vector<std::string> all_domains =
      concat(s.http_test_domains, s.https_test_domains);

  const int n_ases = scale == Scale::kFull ? 80 : 16;
  const int n_endpoints = scale == Scale::kFull ? 1291 : 48;

  std::vector<Builder::AsHandle> handles;
  std::vector<sim::NodeId> attach_routers;  // where endpoints hang
  for (int i = 0; i < n_ases; ++i) {
    std::uint32_t asn = 12389 + static_cast<std::uint32_t>(i);
    Builder::AsHandle h = b.make_as(asn, "RU-ISP-" + std::to_string(i), "RU");
    sim::NodeId border = b.backbone_router(h, "border");
    sim::NodeId core = b.backbone_router(h, "core");
    b.link(border, core);
    if (i % 11 == 10) {
      // A few ASes route via the Kvant corridor instead of the IX.
      b.link(kvant_r1, border);
    } else {
      b.link(i % 2 == 0 ? ix1 : ix2, border);
    }
    handles.push_back(h);
    attach_routers.push_back(core);

    // Device assignment: decentralized, per-AS policies. Each device
    // blocks only a slice of the test list (RU's low per-domain block
    // rate in Table 1).
    auto slice = [&](int count) {
      std::vector<std::string> out;
      for (int k = 0; k < count; ++k) {
        out.push_back(all_domains[static_cast<std::size_t>((i + k * 3)) % all_domains.size()]);
      }
      return out;
    };
    std::string tag = std::to_string(i);
    if (i % 5 == 0 && i < 55) {
      ctx.device(border, "TSPU", "ru-tspu-" + tag, slice(1), asn);
    } else if (i == 3 || i == 13) {
      ctx.device(core, "RU-RSTCOPY", "ru-rstcopy-" + tag, slice(2), asn);
    } else if (i == 4 || i == 31 || i == 38) {
      ctx.device(border, "Cisco", "ru-cisco-" + tag, slice(2), asn);
    } else if (i == 52) {
      // A Cisco deployment with management plane firewalled off: no banner,
      // no blockpage — identifiable only through behaviour (the §7.4
      // label-propagation case).
      ctx.device(border, "Cisco", "ru-cisco-dark-" + tag, slice(2), asn,
                 /*strip_services=*/true);
    } else if (i == 6 || i == 33 || i == 47) {
      ctx.device(core, "Fortinet", "ru-fortinet-" + tag, slice(2), asn);
    } else if (i == 8 || i == 41) {
      ctx.device(core, "Fortinet", "ru-fortinet-bp-" + tag, slice(2), asn,
                 /*strip_services=*/true);
    } else if (i == 36) {
      ctx.device(border, "PaloAlto", "ru-paloalto-" + tag, slice(2), asn);
    } else if (i == 46) {
      // One deployment terminates flows with FIN injection (the small FIN
      // category of Fig. 3).
      censor::DeviceConfig fin = censor::make_vendor_device("Unknown", "ru-fin-" + tag);
      fin.action = censor::BlockAction::kFinInject;
      fin.http_rules = make_rules("Unknown", slice(2));
      fin.sni_rules = make_rules("Unknown", slice(2));
      ctx.pending_devices.push_back({core, std::move(fin), asn});
      b.topology().force_responds_icmp(core);
    } else if (i == 43) {
      ctx.device(core, "DDoSGuard", "ru-ddosguard-" + tag, slice(2), asn);
    } else if (i == 49) {
      ctx.device(border, "Kaspersky", "ru-kaspersky-" + tag, slice(2), asn);
    }
  }

  for (int i = 0; i < n_endpoints; ++i) {
    std::size_t a = static_cast<std::size_t>(i) % handles.size();
    s.remote_endpoints.push_back(
        ctx.infra_endpoint(handles[a], attach_routers[a], i, all_domains));
  }

  // In-country vantage point in an ISP with no device on its egress path
  // (the paper's RU client observed no censorship).
  std::size_t clean_as = scale == Scale::kFull ? 59 : 11;
  sim::NodeId client_ru = b.host(handles[clean_as], "vp-ru");
  b.link(client_ru, attach_routers[clean_as]);

  for (const std::string& d : all_domains) {
    s.foreign_endpoints.push_back(ctx.foreign_server(d, b.rng().chance(0.6)));
  }

  s.network = ctx.finish(s, seed ^ 0xD8);
  s.remote_client = ctx.client_us;
  s.incountry_client = client_ru;
  return s;
}

}  // namespace

CountryScenario make_country(Country c, Scale scale, std::uint64_t seed) {
  switch (c) {
    case Country::kAZ: return make_az(scale, seed);
    case Country::kBY: return make_by(scale, seed);
    case Country::kKZ: return make_kz(scale, seed);
    case Country::kRU: return make_ru(scale, seed);
  }
  return make_az(scale, seed);
}

}  // namespace cen::scenario

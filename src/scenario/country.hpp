// Country scenarios: simulated AZ / BY / KZ / RU deployments whose ground
// truth follows the paper's findings (§4.3, §5.3).
//
//   AZ  — centralized in-path packet-drop censorship at Delta Telecom
//         (AS29049) where transit from Telia (AS1299) enters the country;
//         Cisco / Fortinet / Palo Alto deployments.
//   BY  — on-path RST injection close to the endpoint AS (Beltelecom
//         AS6697 and peers), plus an upstream COGENT (AS174) device that
//         drops bridges.torproject.org before traffic enters BY.
//   KZ  — in-path drops at JSC-Kazakhtelecom (AS9198); about a third of
//         remote paths transit Russia (Megafon AS31133 / Kvant-telekom
//         AS43727) and are censored there — the extraterritorial effect;
//         Cisco / Fortinet / Kerio / MikroTik deployments.
//   RU  — decentralized: TSPU-style drop boxes and TTL-copying RST
//         injectors ("Past E") spread over many ASes; Cisco / Fortinet /
//         Palo Alto / DDoS-Guard / Kaspersky deployments.
//
// Every scenario also provisions foreign web servers genuinely hosting the
// test domains so that in-country vantage points measure egress censorship
// and CenFuzz can distinguish evasion from circumvention.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/strings.hpp"
#include "netsim/engine.hpp"

namespace cen::scenario {

enum class Country : std::uint8_t { kAZ, kBY, kKZ, kRU };
inline constexpr std::string_view kCountryCodes[] = {"AZ", "BY", "KZ", "RU"};
constexpr std::string_view country_code(Country c) { return enum_name(kCountryCodes, c); }

/// Scale factor for endpoint counts: kFull reproduces Table 1's endpoint
/// populations (29 / 123 / 95 / 1291); kSmall divides by ~8 for tests.
enum class Scale : std::uint8_t { kFull, kSmall };
inline constexpr std::string_view kScaleNames[] = {"full", "small"};

struct DeviceTruth {
  std::string device_id;
  std::string vendor;  // "" for unattributed ISP systems
  net::Ipv4Address mgmt_ip;
  bool on_path = false;
  std::uint32_t asn = 0;
};

struct CountryScenario {
  Country country = Country::kAZ;
  std::unique_ptr<sim::Network> network;

  sim::NodeId remote_client = sim::kInvalidNode;     // US vantage point
  sim::NodeId incountry_client = sim::kInvalidNode;  // kInvalidNode for BY

  /// Infrastructure endpoints inside the country (remote targets).
  std::vector<net::Ipv4Address> remote_endpoints;
  /// Foreign servers genuinely hosting the test domains (in-country targets).
  std::vector<net::Ipv4Address> foreign_endpoints;

  std::vector<std::string> http_test_domains;
  std::vector<std::string> https_test_domains;
  std::string control_domain = "www.example.com";

  /// Ground truth (never consumed by the measurement tools themselves).
  std::vector<DeviceTruth> devices;
};

CountryScenario make_country(Country c, Scale scale = Scale::kFull,
                             std::uint64_t seed = 7);

/// All four countries, in paper order (AZ, BY, KZ, RU).
std::vector<Country> all_countries();

}  // namespace cen::scenario

// The config codecs: CampaignSpec (with its embedded WorldSpec and
// EvolutionPlan), WorldSpec and EvolutionPlan documents.
//
// PinnedCorpus holds what each decoder makes of a fixed corpus: the digest
// of to_json of the decoded value, or "rejected". Every number in it reads
// back exactly through to_json, so the pin is independent of how numbers
// are written.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "core/fingerprint.hpp"
#include "longit/evolve.hpp"
#include "worldgen/spec.hpp"

using namespace cen;

namespace {

enum class Codec { kCampaign, kWorld, kEvolution };

std::string digest(std::string_view text) {
  FingerprintBuilder fp;
  fp.mix(text);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp.digest()));
  return buf;
}

/// "rejected", or the digest of to_json of the decoded value. A campaign's
/// evolution_epoch joins the digest: to_json leaves it out without a plan.
std::string outcome(Codec codec, const std::string& doc) {
  switch (codec) {
    case Codec::kCampaign: {
      auto spec = campaign::spec_from_json(doc);
      if (!spec) return "rejected";
      return digest(campaign::to_json(*spec) + "|" + std::to_string(spec->evolution_epoch));
    }
    case Codec::kWorld: {
      auto spec = worldgen::spec_from_json(doc);
      return spec ? digest(worldgen::to_json(*spec)) : "rejected";
    }
    case Codec::kEvolution: {
      auto plan = longit::evolution_from_json(doc);
      return plan ? digest(longit::to_json(*plan)) : "rejected";
    }
  }
  return "?";
}

struct Pinned {
  Codec codec;
  std::string doc;
  std::string outcome;
};

const std::string kFullWorld =
    R"({"name":"w","transit_ases":3,"regional_ases":4,"stub_ases":5,"routers_per_transit":2,)"
    R"("routers_per_regional":3,"routers_per_stub":4,"endpoints":123,"endpoint_zipf":1.25,)"
    R"("profile_templates":3,"http_test_domains":["h1.example","h2.example"],)"
    R"("https_test_domains":["s1.example"],"control_domain":"c.example",)"
    R"("countries":[{"code":"QA","weight":2.5,"censored":true,"vendors":["Fortinet","Cisco"],)"
    R"("deploy_coverage":0.75,"on_path_share":0.25},{"code":"QB","weight":0.5,)"
    R"("censored":false,"vendors":[],"deploy_coverage":0,"on_path_share":0}]})";

const std::string kFullEvolution =
    R"({"seed":99,"start_epoch":2,"period":3,"rule_add_prob":0.5,"rule_remove_prob":0.25,)"
    R"("vendor_upgrade_prob":0.125,"blockpage_swap_prob":1,"coverage_drift_prob":0,)"
    R"("rule_pool":["x.example","y.example"]})";

const std::string kFullCampaign =
    R"({"name":"pin","countries":["RU","KZ","KZ"],"scale":"full","seed":18446744073709551615,)"
    R"("max_endpoints":3,"max_domains":-2,"fuzz_max_endpoints":4,"ambig_max_endpoints":5,)"
    R"("batch_size":6,"http_domains":["a.example","b\"c.example"],"https_domains":["d.example"],)"
    R"("stages":{"trace":false,"probe":false,"fuzz":false,"ambig":true,"cluster":false},)"
    R"("trace":{"max_ttl":30,"retries":2,"repetitions":5,"timeout_run_stop":9,)"
    R"("protocol":"DNS/UDP","retry_backoff_ms":250,"adaptive_max_retries":7,)"
    R"("silent_channel_abort":0,"tomography":true,"vantages":3},)"
    R"("fuzz":{"retries":4,"run_http":false,"run_tls":false,"baseline_attempts":3},)"
    R"("ambig":{"repetitions":5,"retries":1,"wait_after_blocked_ms":1000,"wait_after_ok_ms":20,)"
    R"("retry_backoff_ms":7,"max_distance_ttl":12,"order_salt":1152921504606846976},)"
    R"("faults":{"transient_loss":0.25,"link_loss":0.125,"link_duplicate":0.5,)"
    R"("link_reorder":0.0625,"link_truncate":0.03125,"link_corrupt":0.75,"icmp_blackhole":true,)"
    R"("icmp_rate_per_sec":12.5,"icmp_burst":2,"route_flap_period_ms":60000,"mgmt_drop":0.2,)"
    R"("banner_truncate":0.1},"world":)" +
    kFullWorld + R"(,"evolution":)" + kFullEvolution + R"(,"evolution_epoch":4})";

std::vector<Pinned> corpus() {
  constexpr Codec C = Codec::kCampaign;
  constexpr Codec W = Codec::kWorld;
  constexpr Codec E = Codec::kEvolution;
  return {
      // Every key set.
      {C, kFullCampaign, "ad0b1efd365cae32"},
      {W, kFullWorld, "581e17291c452592"},
      {E, kFullEvolution, "e6899059d671d697"},
      // Defaults.
      {C, "{}", "27d4735ebbcdc9a9"},
      {W, "{}", "b4d0a300398742d5"},
      {E, "{}", "31e6ae109ebc6dd9"},
      {C, " { } \n", "27d4735ebbcdc9a9"},
      // Not JSON, or not an object.
      {C, "not json", "rejected"},
      {C, R"({"seed":1} x)", "rejected"},
      {C, R"({"seed":})", "rejected"},
      {C, "[]", "rejected"},
      {C, "5", "rejected"},
      {C, "null", "rejected"},
      {W, "not json", "rejected"},
      {W, R"(["x"])", "rejected"},
      {W, R"("w")", "rejected"},
      {E, "not json", "rejected"},
      {E, "[1]", "rejected"},
      {E, "true", "rejected"},
      // Campaign rejection paths.
      {C, R"({"countries":"KZ"})", "rejected"},
      {C, R"({"countries":["XX"]})", "rejected"},
      {C, R"({"countries":["kz"]})", "rejected"},
      {C, R"({"countries":["KZ",1]})", "rejected"},
      {C, R"({"countries":["KZ",null]})", "rejected"},
      {C, R"({"countries":{"KZ":1}})", "rejected"},
      {C, R"({"scale":"medium"})", "rejected"},
      {C, R"({"scale":"Full"})", "rejected"},
      {C, R"({"batch_size":0})", "rejected"},
      {C, R"({"batch_size":-1})", "rejected"},
      {C, R"({"batch_size":0.5})", "rejected"},
      {C, R"({"batch_size":-1e300})", "rejected"},
      {C, R"({"http_domains":"a.example"})", "rejected"},
      {C, R"({"http_domains":["a.example",1]})", "rejected"},
      {C, R"({"https_domains":[null]})", "rejected"},
      {C, R"({"https_domains":{}})", "rejected"},
      {C, R"({"trace":{"protocol":"http"}})", "rejected"},
      {C, R"({"trace":{"protocol":1}})", "rejected"},
      {C, R"({"trace":{"protocol":null}})", "rejected"},
      {C, R"({"faults":[]})", "rejected"},
      {C, R"({"faults":null})", "rejected"},
      {C, R"({"faults":0.5})", "rejected"},
      // Nested world and evolution.
      {C, R"({"world":)" + kFullWorld + "}", "a3459155a0285e0b"},
      {C, R"({"world":{}})", "865064284cc5fc31"},
      {C, R"({"world":1})", "rejected"},
      {C, R"({"world":null})", "rejected"},
      {C, R"({"world":[]})", "rejected"},
      {C, R"({"world":{"transit_ases":0}})", "rejected"},
      {C, R"({"world":{"routers_per_stub":0}})", "rejected"},
      {C, R"({"world":{"http_test_domains":[]}})", "rejected"},
      {C, R"({"world":{"countries":[{"weight":2}]}})", "rejected"},
      {C, R"({"world":{"countries":[5]}})", "rejected"},
      {C, R"({"evolution":)" + kFullEvolution + "}", "6178d0b83dae16b4"},
      {C, R"({"evolution":{},"evolution_epoch":3})", "3e2f39346bbd6fca"},
      {C, R"({"evolution_epoch":3,"evolution":{"seed":5}})", "02a9af3758451b88"},
      {C, R"({"evolution":{},"evolution_epoch":"x"})", "b3596401ceef0de0"},
      {C, R"({"evolution":{},"evolution_epoch":-1})", "rejected"},
      {C, R"({"evolution":{},"evolution_epoch":1e300})", "151fde9ddf814fec"},
      {C, R"({"evolution_epoch":3})", "27d4735ebbcdc9a9"},
      {C, R"({"evolution_epoch":-1})", "27d4735ebbcdc9a9"},
      {C, R"({"evolution":5})", "rejected"},
      {C, R"({"evolution":null})", "rejected"},
      {C, R"({"evolution":{"rule_add_prob":1.5}})", "rejected"},
      {C, R"({"evolution":{"start_epoch":-1}})", "rejected"},
      {C, R"({"evolution":{"rule_pool":["a",2]}})", "rejected"},
      {C, R"({"evolution":{"seed":2},"evolution":5})", "dabcf3da2c4dc187"},
      {C, R"({"evolution":5,"evolution":{}})", "rejected"},
      {C, R"({"world":{"stub_ases":3},"world":0})", "dcd6b582427cc67d"},
      // Wrong-typed members keep their defaults.
      {C,
       R"({"name":5,"countries":[],"scale":3,"seed":"x","max_endpoints":true,"max_domains":null,)"
       R"("fuzz_max_endpoints":[1],"ambig_max_endpoints":{},"batch_size":"9","stages":5,)"
       R"("trace":"x","fuzz":[],"ambig":null})",
       "27d4735ebbcdc9a9"},
      {C, R"({"scale":null,"name":null})", "27d4735ebbcdc9a9"},
      {C,
       R"({"stages":{"trace":1,"probe":"no","cluster":false},)"
       R"("trace":{"max_ttl":"x","retries":true,"tomography":1,"vantages":"2",)"
       R"("retry_backoff_ms":[],"protocol":"TLS"},)"
       R"("fuzz":{"run_http":0,"baseline_attempts":2},"ambig":{"order_salt":"1","repetitions":9},)"
       R"("faults":{"link_loss":"x","icmp_blackhole":1,"icmp_burst":8,"mgmt_drop":0.5}})",
       "975a19e4b1a4e87a"},
      // Missing members.
      {C, R"({"trace":{},"fuzz":{},"ambig":{},"faults":{},"stages":{}})", "27d4735ebbcdc9a9"},
      {C, R"({"countries":[],"http_domains":[],"https_domains":[]})", "27d4735ebbcdc9a9"},
      {C, R"({"trace":{"protocol":"DNS"}})", "01c2fc4b06672090"},
      // Unknown members.
      {C,
       R"({"zzz":1,"trace":{"zzz":[1,{"a":2}],"inter_probe_wait":5},"faults":{"unknown":true},)"
       R"("world_tier":"1k","control_sweeps":[]})",
       "27d4735ebbcdc9a9"},
      {C, R"({"fuzz":{"wait_after_blocked":1,"wait_after_ok_ms":2,"retries":6}})",
       "17be00c737cbe498"},
      // Duplicate members: the first wins.
      {C, R"({"seed":5,"seed":9})", "8ef0907f6d0f0ef4"},
      {C, R"({"seed":"x","seed":9})", "27d4735ebbcdc9a9"},
      {C, R"({"countries":["KZ"],"countries":["XX"]})", "2ffa9a526c6a0b7b"},
      {C, R"({"countries":["XX"],"countries":["KZ"]})", "rejected"},
      {C, R"({"scale":"full","scale":"bad"})", "8ff1f4c1747fc2e2"},
      {C, R"({"trace":{"max_ttl":5},"trace":{"max_ttl":9}})", "126715c046528dd3"},
      {C, R"({"trace":5,"trace":{"max_ttl":9}})", "27d4735ebbcdc9a9"},
      {C, R"({"trace":{"tomography":true,"tomography":false,"protocol":"TLS","protocol":"x"}})",
       "339b938f78547c1b"},
      {C, R"({"faults":{"link_loss":0.5},"faults":5})", "c0e362d29cc8e4df"},
      {C, R"({"batch_size":2,"batch_size":0})", "f8f4a776f5d47679"},
      {C, R"({"seed":11,"name":"aé\n"})", "0b3061f52be02ab1"},
      // Saturating numbers.
      {C, R"({"seed":-1})", "b92e2d2c07193c3d"},
      {C, R"({"seed":1e300})", "32175a807f810ee5"},
      {C, R"({"seed":-1e300})", "b92e2d2c07193c3d"},
      {C, R"({"seed":18446744073709551616})", "32175a807f810ee5"},
      {C, R"({"seed":12.9})", "22b87e93e4e63b2e"},
      {C, R"({"seed":-0.5})", "b92e2d2c07193c3d"},
      {C, R"({"seed":1E2})", "35f522239f10aeb9"},
      {C, R"({"max_endpoints":1e300,"max_domains":-1e300,"fuzz_max_endpoints":2147483648})",
       "4f42c7ce3aaf79eb"},
      {C, R"({"batch_size":1e300})", "62bf85dc790c1023"},
      {C,
       R"({"trace":{"retry_backoff_ms":-1,"max_ttl":-1e300},"ambig":{"wait_after_blocked_ms":-5,)"
       R"("wait_after_ok_ms":-1e300,"retry_backoff_ms":0.5,"order_salt":1e300},)"
       R"("faults":{"route_flap_period_ms":-1}})",
       "828404b98d0d62cc"},
      // World rejection paths.
      {W, R"({"transit_ases":0})", "rejected"},
      {W, R"({"stub_ases":0})", "rejected"},
      {W, R"({"transit_ases":-5})", "rejected"},
      {W, R"({"routers_per_transit":0})", "rejected"},
      {W, R"({"routers_per_regional":0})", "rejected"},
      {W, R"({"routers_per_stub":-1})", "rejected"},
      {W, R"({"profile_templates":0})", "rejected"},
      {W, R"({"http_test_domains":[]})", "rejected"},
      {W, R"({"https_test_domains":[]})", "rejected"},
      {W, R"({"http_test_domains":"a"})", "rejected"},
      {W, R"({"https_test_domains":["a",1]})", "rejected"},
      {W, R"({"countries":{}})", "rejected"},
      {W, R"({"countries":[5]})", "rejected"},
      {W, R"({"countries":[{"code":"QA"},null]})", "rejected"},
      {W, R"({"countries":[{"weight":2}]})", "rejected"},
      {W, R"({"countries":[{"code":""}]})", "rejected"},
      {W, R"({"countries":[{"code":5}]})", "rejected"},
      {W, R"({"countries":[{"code":"QA","weight":0}]})", "rejected"},
      {W, R"({"countries":[{"code":"QA","weight":-1}]})", "rejected"},
      {W, R"({"countries":[{"code":"QA","vendors":"Cisco"}]})", "rejected"},
      {W, R"({"countries":[{"code":"QA","vendors":["Cisco",1]}]})", "rejected"},
      // World: wrong types, replaced lists, duplicates, saturation.
      {W,
       R"({"name":5,"transit_ases":"x","endpoints":true,"endpoint_zipf":"x","control_domain":7,)"
       R"("countries":[{"code":"QA","weight":"x","censored":"x","deploy_coverage":null}]})",
       "1b34f3255022d982"},
      {W, R"({"http_test_domains":["x.example","y.example"],"countries":[]})", "e15b6d23db69bc9a"},
      {W,
       R"({"http_test_domains":["a"],"http_test_domains":5,)"
       R"("countries":[{"code":"A","code":5}]})",
       "3d7bb4e6f65cf652"},
      {W, R"({"endpoint_zipf":0.1234567,"countries":[{"code":"QA","weight":1.1}]})",
       "cd39bb0c5321ad08"},
      {W, R"({"transit_ases":1e300,"regional_ases":-1,"endpoints":1e300,"stub_ases":4294967296})",
       "d8897ce6d1e6511f"},
      {W, R"({"endpoints":-1,"profile_templates":2.5,"zzz":{"a":[]}})", "4ea562c330597327"},
      // Evolution rejection paths.
      {E, R"({"rule_add_prob":1.5})", "rejected"},
      {E, R"({"rule_remove_prob":-0.5})", "rejected"},
      {E, R"({"vendor_upgrade_prob":1e300})", "rejected"},
      {E, R"({"blockpage_swap_prob":-1e300})", "rejected"},
      {E, R"({"coverage_drift_prob":2})", "rejected"},
      {E, R"({"start_epoch":-1})", "rejected"},
      {E, R"({"rule_pool":"a"})", "rejected"},
      {E, R"({"rule_pool":["a",null]})", "rejected"},
      // Evolution: wrong types, duplicates, saturation.
      {E, R"({"seed":"x","start_epoch":"x","rule_add_prob":"x","rule_pool":[]})",
       "31e6ae109ebc6dd9"},
      {E, R"({"seed":3,"seed":4,"rule_add_prob":0.5,"rule_add_prob":2})", "944cb081372bc4da"},
      {E, R"({"seed":-1,"period":-3,"start_epoch":1e300})", "cfc6c09845d26112"},
      {E, R"({"seed":1e300,"period":1e300})", "594014fe07e38039"},
      {E, R"({"rule_add_prob":0,"rule_remove_prob":1,"zzz":[1,2]})", "1367e1db8d075115"},
  };
}

}  // namespace

TEST(ConfigCodecs, PinnedCorpus) {
  for (const Pinned& p : corpus()) {
    EXPECT_EQ(outcome(p.codec, p.doc), p.outcome) << p.doc;
  }
}

TEST(ConfigCodecs, RoundTripIsExact) {
  // Integers past double's 53-bit mantissa and doubles past six digits.
  const std::uint64_t past_mantissa = (std::uint64_t{1} << 53) + 1;
  longit::EvolutionPlan plan;
  plan.seed = past_mantissa;
  plan.rule_add_prob = 0.1234567;
  plan.coverage_drift_prob = 0.1 + 0.2;
  worldgen::WorldSpec world;
  world.endpoints = past_mantissa;
  world.endpoint_zipf = 0.1234567;

  campaign::CampaignSpec spec;
  spec.seed = past_mantissa;
  spec.ambig.order_salt = (std::uint64_t{1} << 60) + 3;
  spec.trace.retry_backoff = std::numeric_limits<SimTime>::max();
  spec.faults.default_link.loss = 0.1234567;
  spec.faults.transient_loss = 5e-324;
  spec.faults.default_node.icmp_rate_per_sec = std::numeric_limits<double>::max();
  spec.world = world;
  spec.evolution = plan;
  spec.evolution_epoch = 3;

  std::string error;
  auto loaded = campaign::spec_from_json(campaign::to_json(spec), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->seed, spec.seed);
  EXPECT_EQ(loaded->ambig.order_salt, spec.ambig.order_salt);
  EXPECT_EQ(loaded->trace.retry_backoff, spec.trace.retry_backoff);
  EXPECT_EQ(loaded->faults.default_link.loss, spec.faults.default_link.loss);
  EXPECT_EQ(loaded->faults.transient_loss, spec.faults.transient_loss);
  EXPECT_EQ(loaded->faults.default_node.icmp_rate_per_sec,
            spec.faults.default_node.icmp_rate_per_sec);
  EXPECT_EQ(loaded->evolution, spec.evolution);
  EXPECT_EQ(loaded->evolution_epoch, 3);
  ASSERT_TRUE(loaded->world.has_value());
  EXPECT_EQ(loaded->world->endpoints, world.endpoints);
  EXPECT_EQ(loaded->world->fingerprint(), world.fingerprint());
  EXPECT_EQ(campaign::to_json(*loaded), campaign::to_json(spec));

  EXPECT_EQ(longit::evolution_from_json(longit::to_json(plan)), plan);
  auto world_loaded = worldgen::spec_from_json(worldgen::to_json(world));
  ASSERT_TRUE(world_loaded.has_value());
  EXPECT_EQ(world_loaded->endpoints, world.endpoints);
  EXPECT_EQ(world_loaded->fingerprint(), world.fingerprint());
}

#include "longit/evolve.hpp"

#include <algorithm>
#include <map>

#include "censor/vendors.hpp"
#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "report/wire.hpp"

namespace cen::longit {

namespace {

std::uint64_t hash_str(std::string_view s) {
  FingerprintBuilder fp;
  fp.mix(s);
  return fp.digest();
}

/// Seed of the (plan, site, epoch, device) churn substream. Chained mixes
/// so flipping any one component decorrelates every draw.
std::uint64_t churn_seed(const EvolutionPlan& plan, std::string_view site,
                         int epoch, std::string_view device_id) {
  std::uint64_t h = mix64(plan.seed ^ 0x6c6f6e676974ull);  // "longit"
  h = mix64(h ^ hash_str(site));
  h = mix64(h ^ static_cast<std::uint64_t>(epoch));
  h = mix64(h ^ hash_str(device_id));
  return h;
}

/// The post-upgrade reassembly profile: strict validation everywhere —
/// the observable signature of a firmware generation that closes the
/// insertion/evasion holes cenambig fingerprints.
censor::ReassemblyQuirks strict_reassembly() {
  censor::ReassemblyQuirks q;
  q.reassembles = true;
  q.overlap = censor::OverlapPolicy::kLastWins;
  q.buffers_out_of_order = true;
  q.validates_checksum = true;
  q.ttl_consistency_check = true;
  q.ttl_slack = 1;
  return q;
}

bool has_rule(const censor::RuleSet& rules, std::string_view domain) {
  for (const censor::DomainRule& r : rules.rules()) {
    if (r.domain == domain) return true;
  }
  return false;
}

censor::RuleSet without_rule(const censor::RuleSet& rules, std::size_t index) {
  std::vector<censor::DomainRule> kept = rules.rules();
  kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(index));
  return censor::RuleSet(std::move(kept), rules.case_insensitive());
}

censor::RuleSet without_domain(const censor::RuleSet& rules, std::string_view domain) {
  std::vector<censor::DomainRule> kept;
  kept.reserve(rules.size());
  for (const censor::DomainRule& r : rules.rules()) {
    if (r.domain != domain) kept.push_back(r);
  }
  return censor::RuleSet(std::move(kept), rules.case_insensitive());
}

/// Stashed rule sets of a device that has gone dark.
struct RuleStash {
  censor::RuleSet http, sni, dns;
};

}  // namespace

bool EvolutionPlan::inert() const {
  const bool no_prob = rule_add_prob <= 0.0 && rule_remove_prob <= 0.0 &&
                       vendor_upgrade_prob <= 0.0 && blockpage_swap_prob <= 0.0 &&
                       coverage_drift_prob <= 0.0;
  return no_prob || period <= 0;
}

bool EvolutionPlan::churn_epoch(int epoch) const {
  if (inert()) return false;
  if (epoch < start_epoch) return false;
  return (epoch - start_epoch) % period == 0;
}

std::string to_json(const EvolutionPlan& plan) {
  return report::wire::encode(plan, JsonNumbers::kExact);
}

bool check_evolution(const EvolutionPlan& plan, std::string* error) {
  auto fail = [&](std::string_view why) {
    if (error != nullptr) *error = why;
    return false;
  };
  for (double p : {plan.rule_add_prob, plan.rule_remove_prob, plan.vendor_upgrade_prob,
                   plan.blockpage_swap_prob, plan.coverage_drift_prob}) {
    if (!(p >= 0.0 && p <= 1.0)) return fail("probabilities must be in [0, 1]");
  }
  if (plan.start_epoch < 0) return fail("start_epoch must be >= 0");
  return true;
}

std::optional<EvolutionPlan> evolution_from_json(std::string_view text, std::string* error) {
  std::optional<EvolutionPlan> plan =
      report::wire::decode<EvolutionPlan>(text, JsonNumbers::kExact, error);
  if (plan && !check_evolution(*plan, error)) return std::nullopt;
  return plan;
}

const std::vector<std::string>& builtin_rule_pool() {
  static const std::vector<std::string> kPool = {
      "newly-banned.example",  "forbidden-news.net", "proxy-mirror.org",
      "vpn-gateway.io",        "leaked-docs.info",   "opposition-blog.net",
      "streaming-mirror.tv",   "messenger-alt.app",
  };
  return kPool;
}

std::vector<EpochChurn> apply_evolution(sim::Network& net, std::string_view site,
                                        const EvolutionPlan& plan, int epoch,
                                        const std::vector<std::string>& domain_pool) {
  std::vector<EpochChurn> history;
  if (plan.inert() || epoch <= 0) return history;

  const std::vector<std::string>& pool =
      !plan.rule_pool.empty() ? plan.rule_pool
      : !domain_pool.empty()  ? domain_pool
                              : builtin_rule_pool();

  // Dark devices' stashed rules, keyed by device id; local because each
  // call replays the full history from the baseline network.
  std::map<std::string, RuleStash, std::less<>> stash;

  for (int e = 1; e <= epoch; ++e) {
    if (!plan.churn_epoch(e)) continue;
    EpochChurn ec;
    ec.epoch = e;
    ec.site = std::string(site);
    const auto& devices = net.devices();
    for (std::size_t i = 0; i < devices.size(); ++i) {
      censor::DeviceConfig cfg = devices[i]->config();
      Rng rng(churn_seed(plan, site, e, cfg.id));
      // Draw every decision up front, in a fixed order, so the stream a
      // device consumes never depends on which mutations applied.
      const bool drift = rng.chance(plan.coverage_drift_prob);
      const bool add = rng.chance(plan.rule_add_prob);
      const bool remove = rng.chance(plan.rule_remove_prob);
      const bool upgrade = rng.chance(plan.vendor_upgrade_prob);
      const bool swap = rng.chance(plan.blockpage_swap_prob);
      const std::size_t add_pick = rng.index(pool.size());
      const std::uint64_t remove_pick = rng.next();
      const std::size_t swap_pick = rng.index(
          std::max<std::size_t>(censor::commercial_vendors().size(), 1));

      DeviceChurn churn;
      churn.device_id = cfg.id;
      auto stash_it = stash.find(cfg.id);
      const bool dark = stash_it != stash.end();

      if (drift) {
        if (dark) {
          cfg.http_rules = stash_it->second.http;
          cfg.sni_rules = stash_it->second.sni;
          cfg.dns_rules = stash_it->second.dns;
          stash.erase(stash_it);
          stash_it = stash.end();
          churn.coverage_restored = true;
        } else {
          stash.emplace(cfg.id, RuleStash{cfg.http_rules, cfg.sni_rules, cfg.dns_rules});
          cfg.http_rules = censor::RuleSet({}, cfg.http_rules.case_insensitive());
          cfg.sni_rules = censor::RuleSet({}, cfg.sni_rules.case_insensitive());
          cfg.dns_rules = censor::RuleSet({}, cfg.dns_rules.case_insensitive());
          churn.coverage_dropped = true;
        }
      }
      const bool now_dark = churn.coverage_dropped || (dark && !churn.coverage_restored);

      if (add && !now_dark) {
        const std::string& domain = pool[add_pick];
        if (!has_rule(cfg.http_rules, domain)) {
          cfg.http_rules.add(domain);
          cfg.sni_rules.add(domain);
          churn.rules_added.push_back(domain);
        }
      }
      if (remove && !now_dark && !cfg.http_rules.empty()) {
        const std::size_t idx = static_cast<std::size_t>(
            remove_pick % cfg.http_rules.size());
        const std::string domain = cfg.http_rules.rules()[idx].domain;
        cfg.http_rules = without_rule(cfg.http_rules, idx);
        cfg.sni_rules = without_domain(cfg.sni_rules, domain);
        churn.rules_removed.push_back(domain);
      }
      if (upgrade && cfg.reassembly != strict_reassembly()) {
        cfg.reassembly = strict_reassembly();
        churn.vendor_upgraded = true;
      }
      if (swap && cfg.action == censor::BlockAction::kBlockpage &&
          !censor::commercial_vendors().empty()) {
        const std::string& vendor = censor::commercial_vendors()[swap_pick];
        std::string html =
            censor::make_vendor_device(vendor, cfg.id).blockpage_html;
        if (!html.empty() && html != cfg.blockpage_html) {
          cfg.blockpage_html = std::move(html);
          churn.blockpage_swapped = true;
        }
      }

      if (churn.changed()) {
        net.replace_device_config(i, std::move(cfg));
        ec.devices.push_back(std::move(churn));
      }
    }
    if (ec.any()) history.push_back(std::move(ec));
  }
  return history;
}

}  // namespace cen::longit

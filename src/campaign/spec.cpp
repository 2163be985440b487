#include "campaign/spec.hpp"

#include "report/wire.hpp"

namespace cen::campaign {

std::vector<scenario::Country> CampaignSpec::effective_countries() const {
  return countries.empty() ? scenario::all_countries() : countries;
}

std::string to_json(const CampaignSpec& spec) {
  CampaignSpec expanded = spec;
  expanded.countries = spec.effective_countries();
  if (expanded.world) expanded.world->countries = expanded.world->effective_countries();
  return report::wire::encode(expanded, JsonNumbers::kExact);
}

bool check_spec(const CampaignSpec& spec, std::string* error) {
  auto fail = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  std::string why;
  if (spec.batch_size < 1) return fail("batch_size must be >= 1");
  if (spec.world && !worldgen::check_spec(*spec.world, &why)) return fail("world: " + why);
  if (spec.evolution && !longit::check_evolution(*spec.evolution, &why)) {
    return fail("evolution: " + why);
  }
  if (spec.evolution && spec.evolution_epoch < 0) return fail("evolution_epoch must be >= 0");
  return true;
}

std::optional<CampaignSpec> spec_from_json(std::string_view text, std::string* error) {
  std::optional<CampaignSpec> spec =
      report::wire::decode<CampaignSpec>(text, JsonNumbers::kExact, error);
  // The epoch belongs to the plan: without one the baseline is measured.
  if (spec && !spec->evolution) spec->evolution_epoch = 0;
  if (spec && !check_spec(*spec, error)) return std::nullopt;
  return spec;
}

}  // namespace cen::campaign

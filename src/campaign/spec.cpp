#include "campaign/spec.hpp"

#include "core/strings.hpp"
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

std::optional<CampaignSpec> spec_from_json(std::string_view text, std::string* error) {
  auto fail = [&](std::string why) -> std::optional<CampaignSpec> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  std::optional<CampaignSpec> spec =
      report::wire::decode<CampaignSpec>(text, JsonNumbers::kExact, error);
  if (!spec) return std::nullopt;
  if (spec->batch_size < 1) return fail("batch_size must be >= 1");
  std::string why;
  if (spec->world && !worldgen::check_spec(*spec->world, &why)) return fail("world: " + why);
  if (!spec->evolution) {
    // The epoch belongs to the plan: without one the baseline is measured.
    spec->evolution_epoch = 0;
  } else if (!longit::check_evolution(*spec->evolution, &why)) {
    return fail("evolution: " + why);
  } else if (spec->evolution_epoch < 0) {
    return fail("evolution_epoch must be >= 0");
  }
  return spec;
}

std::optional<CampaignSpec> load_spec_file(const std::string& path, std::string* error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    if (error != nullptr) *error = "cannot open spec file: " + path;
    return std::nullopt;
  }
  return spec_from_json(*text, error);
}

}  // namespace cen::campaign

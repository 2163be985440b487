#include "censor/rules.hpp"

#include "core/strings.hpp"

namespace cen::censor {

std::string_view match_style_name(MatchStyle style) {
  switch (style) {
    case MatchStyle::kExact: return "exact";
    case MatchStyle::kSuffix: return "suffix";
    case MatchStyle::kPrefix: return "prefix";
    case MatchStyle::kContains: return "contains";
  }
  return "?";
}

bool rule_matches(const DomainRule& rule, std::string_view hostname, bool case_insensitive) {
  // Compared in place; case-insensitive matching folds ASCII letters only.
  const std::string_view h = hostname;
  const std::string_view d = rule.domain;
  auto same = [case_insensitive](std::string_view a, std::string_view b) {
    return case_insensitive ? iequals(a, b) : a == b;
  };
  switch (rule.style) {
    case MatchStyle::kExact:
      return same(h, d);
    case MatchStyle::kSuffix:
      // "*.domain.tld" semantics: the bare domain or any name ending in it.
      return h.size() >= d.size() && same(h.substr(h.size() - d.size()), d);
    case MatchStyle::kPrefix:
      return h.size() >= d.size() && same(h.substr(0, d.size()), d);
    case MatchStyle::kContains:
      return case_insensitive ? icontains(h, d) : h.find(d) != std::string_view::npos;
  }
  return false;
}

void RuleSet::add(std::string domain, MatchStyle style) {
  rules_.push_back({std::move(domain), style});
}

bool RuleSet::matches(std::string_view hostname) const {
  return first_match(hostname) != nullptr;
}

const DomainRule* RuleSet::first_match(std::string_view hostname) const {
  for (const DomainRule& rule : rules_) {
    if (rule_matches(rule, hostname, case_insensitive_)) return &rule;
  }
  return nullptr;
}

}  // namespace cen::censor

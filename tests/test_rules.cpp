#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "censor/rules.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"

using namespace cen::censor;

TEST(Rules, ExactMatch) {
  DomainRule rule{"www.example.com", MatchStyle::kExact};
  EXPECT_TRUE(rule_matches(rule, "www.example.com", true));
  EXPECT_FALSE(rule_matches(rule, "m.example.com", true));
  EXPECT_FALSE(rule_matches(rule, "www.example.com.evil.com", true));
  EXPECT_FALSE(rule_matches(rule, "**www.example.com", true));
}

TEST(Rules, SuffixMatchIsLeadingWildcard) {
  // *.example.com semantics (§6.3): catches the bare domain, subdomains,
  // and anything merely *ending* in the rule — hence leading pads stay
  // blocked while trailing pads escape.
  DomainRule rule{"example.com", MatchStyle::kSuffix};
  EXPECT_TRUE(rule_matches(rule, "example.com", true));
  EXPECT_TRUE(rule_matches(rule, "www.example.com", true));
  EXPECT_TRUE(rule_matches(rule, "**www.example.com", true));
  EXPECT_FALSE(rule_matches(rule, "www.example.com**", true));
  EXPECT_FALSE(rule_matches(rule, "www.example.net", true));
}

TEST(Rules, PrefixMatchIsTrailingWildcard) {
  DomainRule rule{"example.com", MatchStyle::kPrefix};
  EXPECT_TRUE(rule_matches(rule, "example.com", true));
  EXPECT_TRUE(rule_matches(rule, "example.com.cdn.net", true));
  EXPECT_FALSE(rule_matches(rule, "www.example.com", true));
}

TEST(Rules, ContainsMatch) {
  DomainRule rule{"example.com", MatchStyle::kContains};
  EXPECT_TRUE(rule_matches(rule, "**www.example.com**", true));
  EXPECT_TRUE(rule_matches(rule, "a.example.com.b", true));
  EXPECT_FALSE(rule_matches(rule, "examp1e.com", true));
}

TEST(Rules, CaseInsensitivity) {
  DomainRule rule{"Example.COM", MatchStyle::kExact};
  EXPECT_TRUE(rule_matches(rule, "EXAMPLE.com", true));
  EXPECT_FALSE(rule_matches(rule, "EXAMPLE.com", false));
  EXPECT_TRUE(rule_matches(rule, "Example.COM", false));
}

TEST(RuleSet, FirstMatchAndMatches) {
  RuleSet rules;
  rules.add("one.com", MatchStyle::kExact);
  rules.add("two.com", MatchStyle::kSuffix);
  EXPECT_TRUE(rules.matches("one.com"));
  EXPECT_TRUE(rules.matches("sub.two.com"));
  EXPECT_FALSE(rules.matches("three.com"));
  const DomainRule* rule = rules.first_match("sub.two.com");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->domain, "two.com");
}

TEST(RuleSet, EmptyMatchesNothing) {
  RuleSet rules;
  EXPECT_FALSE(rules.matches("anything.com"));
  EXPECT_TRUE(rules.empty());
}

TEST(RuleSet, CaseSensitivityToggle) {
  RuleSet rules;
  rules.add("Blocked.com", MatchStyle::kExact);
  rules.set_case_insensitive(false);
  EXPECT_FALSE(rules.matches("blocked.com"));
  rules.set_case_insensitive(true);
  EXPECT_TRUE(rules.matches("blocked.com"));
}

TEST(MatchStyleName, All) {
  EXPECT_EQ(match_style_name(MatchStyle::kExact), "exact");
  EXPECT_EQ(match_style_name(MatchStyle::kSuffix), "suffix");
  EXPECT_EQ(match_style_name(MatchStyle::kPrefix), "prefix");
  EXPECT_EQ(match_style_name(MatchStyle::kContains), "contains");
}

// Property sweep: the fuzzer's hostname mutations against each rule style.
// Each row is (hostname, expect_exact, expect_suffix, expect_contains)
// for the rule domain "example.com" with hostname base www.example.com.
struct MutationCase {
  const char* hostname;
  bool exact;     // rule: exact "www.example.com"
  bool suffix;    // rule: suffix "example.com"
  bool contains;  // rule: contains "example.com"
};

class MutationMatrix : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationMatrix, MatchesPerStyle) {
  const MutationCase& c = GetParam();
  DomainRule exact{"www.example.com", MatchStyle::kExact};
  DomainRule suffix{"example.com", MatchStyle::kSuffix};
  DomainRule contains{"example.com", MatchStyle::kContains};
  EXPECT_EQ(rule_matches(exact, c.hostname, true), c.exact) << c.hostname;
  EXPECT_EQ(rule_matches(suffix, c.hostname, true), c.suffix) << c.hostname;
  EXPECT_EQ(rule_matches(contains, c.hostname, true), c.contains) << c.hostname;
}

INSTANTIATE_TEST_SUITE_P(
    FuzzerMutations, MutationMatrix,
    ::testing::Values(
        MutationCase{"www.example.com", true, true, true},        // normal
        MutationCase{"WWW.EXAMPLE.COM", true, true, true},        // capitalized
        MutationCase{"*www.example.com", false, true, true},      // leading pad
        MutationCase{"www.example.com*", false, false, true},     // trailing pad
        MutationCase{"**www.example.com**", false, false, true},  // both pads
        MutationCase{"m.example.com", false, true, true},         // subdomain alt
        MutationCase{"www.example.net", false, false, false},     // TLD alt
        MutationCase{"moc.elpmaxe.www", false, false, false},     // reversed
        MutationCase{"www.example.comwww.example.com", false, true, true},  // doubled
        MutationCase{"", false, false, false}));                  // empty

// ------------------------------------------------ copy-and-lower reference
//
// rule_matches as it was written before it compared in place: copy both
// names, lowercase the copies through the C library when matching is
// case-insensitive, then compare. Kept as the reference for every style,
// both case policies, and hostnames that are empty, shorter than the
// rule, or carry bytes >= 0x80.

namespace {

std::string reference_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool reference_rule_matches(const DomainRule& rule, std::string_view hostname,
                            bool case_insensitive) {
  std::string h(hostname);
  std::string d = rule.domain;
  if (case_insensitive) {
    h = reference_lower(h);
    d = reference_lower(d);
  }
  switch (rule.style) {
    case MatchStyle::kExact:
      return h == d;
    case MatchStyle::kSuffix:
      return h == d || cen::ends_with(h, d);
    case MatchStyle::kPrefix:
      return cen::starts_with(h, d);
    case MatchStyle::kContains:
      return h.find(d) != std::string::npos;
  }
  return false;
}

}  // namespace

TEST(Rules, MatchesCopyLowerReference) {
  const std::vector<std::string> domains = {
      "example.com", "Example.COM", "", "e", "EX", "\xc3\x89xample.com", "EXAMPLE.com\xff",
      "xn--bcher-kva.example", "a.b"};
  std::vector<std::string> hosts = {
      "", "e", "E", "ex", "example.com", "EXAMPLE.COM", "www.example.com", "wWw.ExAmPlE.cOm",
      "example.com.evil.net", "xexample.comx", "examplE.co", "\xc3\x89xample.com",
      "\xc3\xa9xample.com", "www.\xc3\x89XAMPLE.COM", "EXAMPLE.com\xff", "example.com\xdf",
      "\xff\xfe", "XN--BCHER-KVA.EXAMPLE", "a.b", "A.B.", ".a.b"};
  // Seeded hostnames over an alphabet mixing both cases, dots and high bytes.
  const std::string alphabet = "aAeExXmMpPlLcCoO.\xc3\x89\xe9\xff-";
  cen::Rng rng(0x7e1e);
  for (int i = 0; i < 400; ++i) {
    std::string h;
    const std::size_t len = rng.uniform(14);
    for (std::size_t k = 0; k < len; ++k) h += alphabet[rng.uniform(alphabet.size())];
    if (rng.chance(0.5)) h += domains[rng.uniform(domains.size())];
    hosts.push_back(std::move(h));
  }
  std::size_t matched = 0;
  std::size_t checked = 0;
  for (const std::string& domain : domains) {
    for (MatchStyle style :
         {MatchStyle::kExact, MatchStyle::kSuffix, MatchStyle::kPrefix, MatchStyle::kContains}) {
      const DomainRule rule{domain, style};
      for (bool ci : {true, false}) {
        for (const std::string& h : hosts) {
          const bool expected = reference_rule_matches(rule, h, ci);
          EXPECT_EQ(expected, rule_matches(rule, h, ci))
              << match_style_name(style) << " rule " << testing::PrintToString(domain)
              << " host " << testing::PrintToString(h) << " ci " << ci;
          matched += expected;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(matched, checked / 20);
  EXPECT_LT(matched, checked / 2);
}

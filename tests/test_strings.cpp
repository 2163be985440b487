#include <gtest/gtest.h>

#include "core/strings.hpp"

using namespace cen;

TEST(Strings, CaseConversions) {
  EXPECT_EQ(ascii_lower("HoSt: X"), "host: x");
  EXPECT_EQ(ascii_upper("get /"), "GET /");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("Host", "hOsT"));
  EXPECT_FALSE(iequals("Host", "Hos"));
  EXPECT_FALSE(iequals("Host", "Hosts"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, CaseFoldIsAsciiOnly) {
  // Only A-Z and a-z fold; every other byte value maps to itself.
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    const char lower = v >= 'A' && v <= 'Z' ? static_cast<char>(v + 32) : c;
    const char upper = v >= 'a' && v <= 'z' ? static_cast<char>(v - 32) : c;
    const std::string s(1, c);
    EXPECT_EQ(ascii_lower(s), std::string(1, lower)) << v;
    EXPECT_EQ(ascii_upper(s), std::string(1, upper)) << v;
    for (int w = 0; w < 256; ++w) {
      const char d = static_cast<char>(w);
      const bool same_letter = (v | 0x20) == (w | 0x20) && (v | 0x20) >= 'a' && (v | 0x20) <= 'z';
      EXPECT_EQ(iequals(s, std::string(1, d)), v == w || same_letter) << v << " " << w;
    }
  }
  EXPECT_TRUE(icontains("www.ExAmPlE.com", "EXAMPLE"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_TRUE(icontains("", ""));
  EXPECT_FALSE(icontains("ab", "abc"));
  EXPECT_FALSE(icontains("\xc3\x89xample", "\xc3\xa9xample"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b \r\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitChar) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitCharTrailingDelim) {
  auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitString) {
  auto parts = split("a\r\nb\r\n\r\nc", std::string_view("\r\n"));
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitStringNoMatch) {
  auto parts = split("abc", std::string_view("\r\n"));
  ASSERT_EQ(parts.size(), 1u);
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("HTTP/1.1", "HTTP/"));
  EXPECT_FALSE(starts_with("HTP", "HTTP"));
  EXPECT_TRUE(ends_with("www.example.com", "example.com"));
  EXPECT_FALSE(ends_with("com", "example.com"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"only"}, "."), "only");
}

TEST(Strings, Reversed) {
  EXPECT_EQ(reversed("abc"), "cba");
  EXPECT_EQ(reversed(""), "");
  EXPECT_EQ(reversed("www.example.com"), "moc.elpmaxe.www");
}

TEST(Strings, FmtFixed) {
  EXPECT_EQ(fmt_fixed(42.1266, 2), "42.13");
  EXPECT_EQ(fmt_fixed(0.0, 1), "0.0");
}

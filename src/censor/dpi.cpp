#include "censor/dpi.hpp"

#include <algorithm>

#include "core/strings.hpp"
#include "net/http.hpp"
#include "net/tls.hpp"

namespace cen::censor {

namespace {

/// Strict (CRLF) tokenizers split on "\r\n" only, so a CR or LF that is not
/// part of a "\r\n" pair ends up inside a line. True if `raw` has one.
bool has_bare_cr_or_lf(std::string_view raw) {
  for (std::size_t i = raw.find_first_of("\r\n"); i != std::string_view::npos;
       i = raw.find_first_of("\r\n", i + 1)) {
    if (raw[i] == '\n' || i + 1 == raw.size() || raw[i + 1] != '\n') return true;
    ++i;  // the pair's LF
  }
  return false;
}

/// Walks the payload line by line under the device's delimiter discipline.
/// Strict (CRLF) parsers recognise only "\r\n"; tolerant ones split on
/// "\n" and drop one trailing "\r" from each line. Like a split that keeps
/// empty fields, n delimiters give n + 1 lines, the last one possibly empty.
class LineWalker {
 public:
  LineWalker(std::string_view raw, bool requires_crlf)
      : raw_(raw), delim_(requires_crlf ? "\r\n" : "\n"), tolerant_(!requires_crlf) {}

  /// The next line, or nullopt after the last one.
  std::optional<std::string_view> next() {
    if (pos_ > raw_.size()) return std::nullopt;
    std::size_t end = raw_.find(delim_, pos_);
    if (end == std::string_view::npos) end = raw_.size();
    std::string_view line = raw_.substr(pos_, end - pos_);
    pos_ = end + delim_.size();
    if (tolerant_ && !line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }

 private:
  std::string_view raw_;
  std::string_view delim_;
  bool tolerant_;
  std::size_t pos_ = 0;
};

bool method_engages(std::string_view method, const HttpQuirks& q) {
  if (q.method_allowlist.empty()) return !method.empty();
  for (const std::string& allowed : q.method_allowlist) {
    bool match = q.method_case_insensitive ? iequals(method, allowed) : method == allowed;
    if (match) return true;
  }
  return false;
}

bool version_engages(std::string_view version, const HttpQuirks& q) {
  switch (q.version_check) {
    case VersionCheck::kNone:
      return true;
    case VersionCheck::kPrefixHttp: {
      if (version.size() < 5) return false;
      std::string_view prefix = version.substr(0, 5);
      return q.version_prefix_case_insensitive ? iequals(prefix, "HTTP/") : prefix == "HTTP/";
    }
    case VersionCheck::kValidOnly:
      return version == "HTTP/1.1" || version == "HTTP/1.0";
  }
  return false;
}

bool host_word_engages(std::string_view name, const HttpQuirks& q) {
  switch (q.host_word_check) {
    case HostWordCheck::kExactCaseInsensitive:
      return iequals(name, "Host");
    case HostWordCheck::kExactCaseSensitive:
      return name == "Host";
    case HostWordCheck::kContainsHost:
      return icontains(name, "host");
  }
  return false;
}

}  // namespace

std::optional<HttpDpiResult> dpi_parse_http(std::string_view raw, const HttpQuirks& q) {
  // Fewer than two lines: no recognised line delimiter.
  if (raw.find(q.requires_crlf ? "\r\n" : "\n") == std::string_view::npos) return std::nullopt;
  // Under strict CRLF parsing, embedded bare CR/LF inside a "line" (body
  // included) means the sender violated the discipline; the DPI's
  // tokenizer then sees a garbled request line and disengages.
  if (q.requires_crlf && has_bare_cr_or_lf(raw)) return std::nullopt;
  LineWalker lines(raw, q.requires_crlf);

  // Request line: METHOD SP PATH SP VERSION.
  const std::string_view request_line = *lines.next();
  std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  std::string_view method = request_line.substr(0, sp1);
  std::string_view path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = trim(request_line.substr(sp2 + 1));
  if (!method_engages(method, q)) return std::nullopt;
  if (!version_engages(version, q)) return std::nullopt;

  // Header scan for the Host keyword.
  while (const std::optional<std::string_view> line = lines.next()) {
    if (line->empty()) break;  // end of header block
    std::size_t colon = line->find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view name = trim(line->substr(0, colon));
    if (!host_word_engages(name, q)) continue;
    return HttpDpiResult{trim(line->substr(colon + 1)), path};
  }
  return std::nullopt;  // no Host header the DPI recognises
}

std::optional<std::string_view> dpi_parse_sni(BytesView raw, const TlsQuirks& q) {
  const std::optional<net::ClientHelloView> ch = net::ClientHelloView::parse(raw);
  if (!ch) return std::nullopt;

  // Version tolerance: the hello must advertise at least one version the
  // DPI's parser understands (legacy field or supported_versions ext).
  auto understood = [&](net::TlsVersion v) {
    return std::find(q.parses_versions.begin(), q.parses_versions.end(), v) !=
           q.parses_versions.end();
  };
  bool version_ok = understood(ch->legacy_version);
  ch->for_each_version([&](net::TlsVersion v) { version_ok = version_ok || understood(v); });
  if (!version_ok) return std::nullopt;

  // Blind cipher lists: a hello offering only a cipher the device cannot
  // classify is not recognised as web traffic.
  if (ch->cipher_suite_count() == 1 &&
      std::find(q.blind_cipher_suites.begin(), q.blind_cipher_suites.end(),
                ch->cipher_suite(0)) != q.blind_cipher_suites.end()) {
    return std::nullopt;
  }

  if (q.breaks_on_padding_extension && ch->extension(net::TlsExtensionType::kPadding)) {
    return std::nullopt;
  }

  return ch->sni();
}

bool looks_like_tls(BytesView payload) { return !payload.empty() && payload[0] == 0x16; }

}  // namespace cen::censor

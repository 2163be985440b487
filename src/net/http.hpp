// HTTP/1.1 request/response modelling (paper Fig. 7).
//
// The request type is deliberately *structural*, exposing every lexical
// component of the request line and Host header (method word, version word,
// delimiters, host keyword) as independently settable strings. CenFuzz's
// HTTP strategies (Table 2) mutate exactly these components, including into
// invalid forms (e.g. "GE", "HtTP/1.1", "ost:", missing "\n"), and the
// serialized bytes are what censorship-device DPI models parse.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bytes.hpp"

namespace cen::net {

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  std::string request_line_delim = "\r\n";
  std::string host_word = "Host: ";  // header keyword incl. colon+separator
  std::string host = "";            // the Host header value (the hostname)
  std::string host_delim = "\r\n";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string trailer = "\r\n";  // final blank-line delimiter

  /// Build a well-formed GET for `hostname`.
  static HttpRequest get(std::string hostname);
  /// Exact on-the-wire bytes.
  std::string serialize() const;
  /// Append the wire bytes into a reused buffer (cleared first, capacity
  /// kept) — the repeated-sweep hot path.
  void serialize_into(Bytes& out) const;
  Bytes serialize_bytes() const;
};

/// Result of parsing a request at an endpoint or middlebox. Parsers are
/// graded: a strict parser rejects anything non-RFC-conformant, a lenient
/// one (like many real servers) repairs what it can.
struct ParsedHttpRequest {
  bool parse_ok = false;          // a request line was recognised at all
  std::string method;
  std::string path;
  std::string version;
  std::optional<std::string> host;  // value of a recognised Host header
  bool method_valid = false;        // method is a registered HTTP method
  bool version_valid = false;       // version is HTTP/1.0 or HTTP/1.1
  bool line_delims_valid = false;   // CRLF discipline respected
};

/// True for the registered methods (GET/HEAD/POST/PUT/PATCH/DELETE/OPTIONS/TRACE/CONNECT).
bool is_registered_http_method(std::string_view method);

/// Parse raw request bytes the way a typical origin server would
/// (tolerates bare-LF line endings, case-insensitive header names).
ParsedHttpRequest parse_http_request(std::string_view raw);

/// A response as views into its serialized bytes (HttpResponse::view).
struct HttpResponseView {
  int status = 200;
  std::string_view reason = "OK";  // "OK" when the status line has no reason field
  /// The header lines, each ending in "\r\n", without the blank line.
  std::string_view headers;
  std::string_view body;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  static HttpResponse make(int status, std::string_view reason, std::string body);
  std::string serialize() const;
  /// Read a serialized response in place; nullopt if not an HTTP response.
  /// The one response grammar: parse() is view() plus copies.
  static std::optional<HttpResponseView> view(std::string_view raw);
  /// Parse a serialized response; returns nullopt if not an HTTP response.
  static std::optional<HttpResponse> parse(std::string_view raw);
};

/// Standard reason phrase for common status codes ("Not Found" for 404).
std::string_view http_reason(int status);

}  // namespace cen::net

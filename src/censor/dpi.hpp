// Deep-packet-inspection primitives: quirk-parameterized extraction of the
// HTTP Host (+path) and the TLS SNI from raw payload bytes.
//
// These functions model *how a middlebox parses*, which is deliberately
// different from how a well-behaved server parses (net/http.hpp): CenFuzz's
// entire premise (paper §6) is that censors and endpoints disagree on
// malformed input. A return of nullopt means the DPI disengaged — the
// payload passes uninspected.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "censor/quirks.hpp"
#include "core/bytes.hpp"

namespace cen::censor {

/// Host and path as the HTTP DPI extracted them: views into the parsed
/// payload, valid as long as its bytes are.
struct HttpDpiResult {
  std::string_view host;
  std::string_view path;
};

/// Extract (host, path) under the device's HTTP quirks, or nullopt if the
/// parser disengages (bad method, bad version token, missing Host, CRLF
/// violation...). Walks the payload in place and allocates nothing.
std::optional<HttpDpiResult> dpi_parse_http(std::string_view raw, const HttpQuirks& q);

/// Extract the SNI under the device's TLS quirks, or nullopt if the TLS
/// parser disengages (malformed record, unsupported version, blinding
/// cipher list, padding confusion) or no SNI is present. The SNI is a view
/// into `raw`, read in place (net::ClientHelloView): nothing is allocated.
std::optional<std::string_view> dpi_parse_sni(BytesView raw, const TlsQuirks& q);

/// Quick classification of a payload: does it look like the start of a TLS
/// record (first byte 0x16) vs plaintext?
bool looks_like_tls(BytesView payload);

}  // namespace cen::censor

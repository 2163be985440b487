#include "net/http.hpp"

#include <array>
#include <cstdlib>

#include "core/strings.hpp"

namespace cen::net {

HttpRequest HttpRequest::get(std::string hostname) {
  HttpRequest r;
  r.host = std::move(hostname);
  return r;
}

std::string HttpRequest::serialize() const {
  std::string out;
  out.reserve(128);
  out += method;
  out += ' ';
  out += path;
  out += ' ';
  out += version;
  out += request_line_delim;
  out += host_word;
  out += host;
  out += host_delim;
  for (const auto& [name, value] : extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += trailer;
  return out;
}

void HttpRequest::serialize_into(Bytes& out) const {
  out.clear();
  std::size_t total = method.size() + 1 + path.size() + 1 + version.size() +
                      request_line_delim.size() + host_word.size() + host.size() +
                      host_delim.size() + trailer.size();
  for (const auto& [name, value] : extra_headers) {
    total += name.size() + 2 + value.size() + 2;
  }
  out.reserve(total);
  auto append = [&out](std::string_view s) {
    out.insert(out.end(), s.begin(), s.end());
  };
  append(method);
  out.push_back(' ');
  append(path);
  out.push_back(' ');
  append(version);
  append(request_line_delim);
  append(host_word);
  append(host);
  append(host_delim);
  for (const auto& [name, value] : extra_headers) {
    append(name);
    append(": ");
    append(value);
    append("\r\n");
  }
  append(trailer);
}

Bytes HttpRequest::serialize_bytes() const { return to_bytes(serialize()); }

bool is_registered_http_method(std::string_view method) {
  static constexpr std::array<std::string_view, 9> kMethods = {
      "GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS", "TRACE", "CONNECT"};
  for (std::string_view m : kMethods) {
    if (m == method) return true;
  }
  return false;
}

ParsedHttpRequest parse_http_request(std::string_view raw) {
  ParsedHttpRequest out;
  // Find end of request line; tolerate both CRLF and bare LF.
  std::size_t eol = raw.find('\n');
  if (eol == std::string_view::npos) return out;
  std::string_view line = raw.substr(0, eol);
  out.line_delims_valid = !line.empty() && line.back() == '\r';
  if (out.line_delims_valid) line.remove_suffix(1);

  std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return out;
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return out;
  out.method = std::string(line.substr(0, sp1));
  out.path = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(trim(line.substr(sp2 + 1)));
  out.parse_ok = !out.method.empty() && !out.path.empty();
  out.method_valid = is_registered_http_method(out.method);
  out.version_valid = out.version == "HTTP/1.1" || out.version == "HTTP/1.0";

  // Header block.
  std::size_t pos = eol + 1;
  while (pos < raw.size()) {
    std::size_t next = raw.find('\n', pos);
    if (next == std::string_view::npos) next = raw.size();
    std::string_view hline = raw.substr(pos, next - pos);
    if (!hline.empty() && hline.back() == '\r') {
      hline.remove_suffix(1);
    } else if (!hline.empty()) {
      out.line_delims_valid = false;
    }
    if (hline.empty()) break;  // end of headers
    pos = next + 1;
    // A bare CR *inside* a field line is a line-delimiter violation, not
    // header content: recognizing "Host: a\rX: b" as Host "a\rX: b" let
    // smuggled bytes ride along inside the reported hostname.
    if (hline.find('\r') != std::string_view::npos) {
      out.line_delims_valid = false;
      continue;
    }
    std::size_t colon = hline.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = hline.substr(0, colon);
      // RFC 9112 §5.1: no whitespace between field name and colon; a
      // padded name ("Host : x") must not be recognized as the header.
      if (name != trim(name)) continue;
      std::string_view value = trim(hline.substr(colon + 1));
      if (iequals(name, "Host")) out.host = std::string(value);
    }
  }
  return out;
}

HttpResponse HttpResponse::make(int status, std::string_view reason, std::string body) {
  HttpResponse r;
  r.status = status;
  r.reason = std::string(reason);
  r.body = std::move(body);
  r.headers.emplace_back("Content-Type", "text/html");
  r.headers.emplace_back("Content-Length", std::to_string(r.body.size()));
  return r;
}

std::string HttpResponse::serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::optional<HttpResponseView> HttpResponse::view(std::string_view raw) {
  if (!starts_with(raw, "HTTP/")) return std::nullopt;
  std::size_t eol = raw.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  // Status line: VERSION SP STATUS [SP REASON], the reason running to the
  // end of the line spaces and all.
  const std::string_view line = raw.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  HttpResponseView resp;
  const std::string_view status = line.substr(
      sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
  resp.status = std::atoi(std::string(status).c_str());  // fits the small-string buffer
  if (sp2 != std::string_view::npos) resp.reason = line.substr(sp2 + 1);
  // Header lines run to the blank line; an unterminated line is body.
  const std::size_t headers_start = eol + 2;
  std::size_t pos = headers_start;
  std::size_t headers_end = pos;
  while (pos < raw.size()) {
    std::size_t next = raw.find("\r\n", pos);
    if (next == std::string_view::npos) break;
    const bool blank = next == pos;
    pos = next + 2;
    if (blank) break;  // header/body separator
    headers_end = pos;
  }
  resp.headers = raw.substr(headers_start, headers_end - headers_start);
  resp.body = raw.substr(pos);
  return resp;
}

std::optional<HttpResponse> HttpResponse::parse(std::string_view raw) {
  const std::optional<HttpResponseView> v = view(raw);
  if (!v) return std::nullopt;
  HttpResponse resp;
  resp.status = v->status;
  resp.reason = std::string(v->reason);
  for (std::string_view block = v->headers; !block.empty();) {
    const std::size_t eol = block.find("\r\n");
    const std::string_view hline = block.substr(0, eol);
    block.remove_prefix(eol + 2);
    std::size_t colon = hline.find(':');
    if (colon != std::string_view::npos) {
      resp.headers.emplace_back(std::string(trim(hline.substr(0, colon))),
                                std::string(trim(hline.substr(colon + 1))));
    }
  }
  resp.body = std::string(v->body);
  return resp;
}

std::string_view http_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 501: return "Not Implemented";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

}  // namespace cen::net

// HTTP/1.1 request/response value types shared by the parser, gateway,
// server, and client (paper's "HTTP front end" north star; pazpar2's
// http_command protocol is the exemplar for the command surface).
//
// Requests are produced only by RequestParser; responses are built by the
// gateway and rendered with serialize(). Header names are stored lowercased
// so lookups are case-insensitive per RFC 7230 §3.2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/payload.hpp"

namespace wdoc::http {

enum class Method : std::uint8_t { get, head, post, put, del, options, other };

[[nodiscard]] const char* method_name(Method m);
[[nodiscard]] Method method_from(std::string_view token);

struct Request {
  Method method = Method::other;
  std::string method_token;             // original token (for `other`)
  std::string target;                   // raw request-target as received
  std::string path;                     // percent-decoded path component
  std::vector<std::pair<std::string, std::string>> query;  // decoded, in order
  int version_minor = 1;                // HTTP/1.<minor>; only 0 and 1 accepted
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
  bool keep_alive = true;               // 1.1 default on, 1.0 default off

  // First query parameter named `key`, if any.
  [[nodiscard]] std::optional<std::string> param(std::string_view key) const;
  [[nodiscard]] const std::string* header(std::string_view name) const;
};

struct Response {
  int status = 200;
  std::map<std::string, std::string> headers;  // Content-Length added on render
  // Refcounted immutable body: a handler serving a stored blob (or a cached
  // render) hands out a slice of the existing buffer instead of copying it
  // into every response. Use text() for string comparisons.
  net::Payload body;
  bool keep_alive = true;  // rendered as the Connection header

  [[nodiscard]] static Response text(int status, std::string body);
  [[nodiscard]] static Response json(int status, std::string body);
  [[nodiscard]] static Response html(int status, std::string body);
};

[[nodiscard]] const char* status_reason(int status);

// Renders the full wire form: status line, headers (sorted; Content-Length
// and Connection synthesized), CRLF, body. Byte-identical for identical
// responses, so same-seed runs produce identical wire traffic.
[[nodiscard]] std::string serialize(const Response& r);

// Appends the wire form up to and including the blank line, without the
// body, to `out`. The server renders a batch of responses' heads into one
// buffer and writes each body from its own Payload, so a large body is never
// copied into a headers+body wire string.
void serialize_headers(const Response& r, std::string& out);

// Percent-decodes `in` ('+' becomes space when `plus_as_space`). Invalid or
// truncated %XX escapes are passed through verbatim rather than rejected —
// the gateway treats the query string as opaque text, never as bytes to
// re-interpret, so lenient decoding cannot smuggle structure past a check.
[[nodiscard]] std::string percent_decode(std::string_view in, bool plus_as_space);

// Splits "path?k=v&k2=v2" into decoded path and decoded key/value pairs.
void split_target(std::string_view target, std::string& path,
                  std::vector<std::pair<std::string, std::string>>& query);

}  // namespace wdoc::http

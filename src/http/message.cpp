#include "http/message.hpp"

#include <algorithm>
#include <cctype>

namespace wdoc::http {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::get: return "GET";
    case Method::head: return "HEAD";
    case Method::post: return "POST";
    case Method::put: return "PUT";
    case Method::del: return "DELETE";
    case Method::options: return "OPTIONS";
    case Method::other: return "OTHER";
  }
  return "OTHER";
}

Method method_from(std::string_view token) {
  if (token == "GET") return Method::get;
  if (token == "HEAD") return Method::head;
  if (token == "POST") return Method::post;
  if (token == "PUT") return Method::put;
  if (token == "DELETE") return Method::del;
  if (token == "OPTIONS") return Method::options;
  return Method::other;
}

std::optional<std::string> Request::param(std::string_view key) const {
  for (const auto& [k, v] : query) {
    if (k == key) return v;
  }
  return std::nullopt;
}

const std::string* Request::header(std::string_view name) const {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  auto it = headers.find(lower);
  return it == headers.end() ? nullptr : &it->second;
}

Response Response::text(int status, std::string body) {
  Response r;
  r.status = status;
  r.headers["Content-Type"] = "text/plain; charset=utf-8";
  r.body = std::move(body);
  return r;
}

Response Response::json(int status, std::string body) {
  Response r;
  r.status = status;
  r.headers["Content-Type"] = "application/json";
  r.body = std::move(body);
  return r;
}

Response Response::html(int status, std::string body) {
  Response r;
  r.status = status;
  r.headers["Content-Type"] = "text/html; charset=utf-8";
  r.body = std::move(body);
  return r;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return status >= 500 ? "Server Error" : "Error";
  }
}

void serialize_headers(const Response& r, std::string& out) {
  out += "HTTP/1.1 ";
  out += std::to_string(r.status);
  out += ' ';
  out += status_reason(r.status);
  out += "\r\n";
  for (const auto& [name, value] : r.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(r.body.size());
  out += "\r\nConnection: ";
  out += r.keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
}

std::string serialize(const Response& r) {
  std::string out;
  serialize_headers(r, out);
  out.append(r.body.text());
  return out;
}

std::string percent_decode(std::string_view in, bool plus_as_space) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c == '+' && plus_as_space) {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < in.size()) {
      int hi = hex_digit(in[i + 1]);
      int lo = hex_digit(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);  // malformed escape: keep verbatim
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void split_target(std::string_view target, std::string& path,
                  std::vector<std::pair<std::string, std::string>>& query) {
  query.clear();
  std::size_t qpos = target.find('?');
  path = percent_decode(target.substr(0, qpos), /*plus_as_space=*/false);
  if (qpos == std::string_view::npos) return;
  std::string_view qs = target.substr(qpos + 1);
  while (!qs.empty()) {
    std::size_t amp = qs.find('&');
    std::string_view pair = qs.substr(0, amp);
    qs = amp == std::string_view::npos ? std::string_view{} : qs.substr(amp + 1);
    if (pair.empty()) continue;
    std::size_t eq = pair.find('=');
    std::string key = percent_decode(pair.substr(0, eq), /*plus_as_space=*/true);
    std::string value = eq == std::string_view::npos
                            ? std::string{}
                            : percent_decode(pair.substr(eq + 1), true);
    query.emplace_back(std::move(key), std::move(value));
  }
}

}  // namespace wdoc::http

// Minimal blocking HTTP/1.1 client for tests, the workload driver, and the
// curl-less smoke paths. Supports keep-alive and pipelining: callers may
// write any number of requests before reading the responses back in order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.hpp"

namespace wdoc::http {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
  bool keep_alive = true;
};

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  [[nodiscard]] Status connect(const std::string& host, std::uint16_t port);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  // Raw bytes onto the wire (requests may be pre-rendered and batched).
  [[nodiscard]] Status send_raw(std::string_view bytes);
  // Renders and sends one request without reading the response (pipelining).
  [[nodiscard]] Status send_request(std::string_view method, std::string_view target,
                                    std::string_view body = {});
  // Reads the next response off the wire (in pipeline order).
  [[nodiscard]] Result<ClientResponse> read_response();

  // send_request + read_response.
  [[nodiscard]] Result<ClientResponse> get(std::string_view target);

 private:
  int fd_ = -1;
  std::string buf_;  // bytes received but not yet consumed
};

}  // namespace wdoc::http

#include "http/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace wdoc::http {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

}  // namespace

Status HttpClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return {Errc::io_error, std::string("socket: ") + std::strerror(errno)};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return {Errc::invalid_argument, "bad address: " + host};
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s{Errc::unreachable, std::string("connect: ") + std::strerror(errno)};
    close();
    return s;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::ok();
}

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Status HttpClient::send_raw(std::string_view bytes) {
  if (fd_ < 0) return {Errc::unavailable, "not connected"};
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t sent = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return {Errc::io_error, std::string("send: ") + std::strerror(errno)};
    }
    off += static_cast<std::size_t>(sent);
  }
  return Status::ok();
}

Status HttpClient::send_request(std::string_view method, std::string_view target,
                                std::string_view body) {
  std::string req;
  req.reserve(target.size() + body.size() + 96);
  req += method;
  req += ' ';
  req += target;
  req += " HTTP/1.1\r\nHost: wdoc\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    req += "Content-Length: ";
    req += std::to_string(body.size());
    req += "\r\n";
  }
  req += "\r\n";
  req += body;
  return send_raw(req);
}

Result<ClientResponse> HttpClient::read_response() {
  if (fd_ < 0) return Error{Errc::unavailable, "not connected"};

  auto read_more = [&]() -> Status {
    char chunk[16 << 10];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        return Status::ok();
      }
      if (n == 0) return {Errc::io_error, "connection closed mid-response"};
      if (errno == EINTR) continue;
      return {Errc::io_error, std::string("recv: ") + std::strerror(errno)};
    }
  };

  // Header block.
  std::size_t block_end;
  while ((block_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (buf_.size() > (1u << 20)) return Error{Errc::corrupt, "oversized response head"};
    WDOC_TRY(read_more());
  }

  ClientResponse rsp;
  std::string_view head(buf_.data(), block_end);
  std::size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 7) != "HTTP/1.") {
    return Error{Errc::corrupt, "bad status line: " + std::string(status_line)};
  }
  rsp.status = (status_line[9] - '0') * 100 + (status_line[10] - '0') * 10 +
               (status_line[11] - '0');
  std::string_view headers = line_end == std::string_view::npos
                                 ? std::string_view{}
                                 : head.substr(line_end + 2);
  while (!headers.empty()) {
    std::size_t eol = headers.find("\r\n");
    std::string_view line = headers.substr(0, eol);
    headers = eol == std::string_view::npos ? std::string_view{} : headers.substr(eol + 2);
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    rsp.headers[to_lower(line.substr(0, colon))] = std::string(value);
  }

  std::size_t content_length = 0;
  if (auto it = rsp.headers.find("content-length"); it != rsp.headers.end()) {
    content_length = static_cast<std::size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
  }
  std::size_t body_begin = block_end + 4;
  while (buf_.size() - body_begin < content_length) WDOC_TRY(read_more());
  rsp.body = buf_.substr(body_begin, content_length);
  buf_.erase(0, body_begin + content_length);

  if (auto it = rsp.headers.find("connection"); it != rsp.headers.end()) {
    rsp.keep_alive = to_lower(it->second) != "close";
  }
  return rsp;
}

Result<ClientResponse> HttpClient::get(std::string_view target) {
  WDOC_TRY(send_request("GET", target));
  return read_response();
}

}  // namespace wdoc::http

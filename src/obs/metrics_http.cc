#include "obs/metrics_http.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace opt {

namespace {

void WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a scraper that hung up (or Stop() shutting the
    // socket down) must not raise SIGPIPE in the daemon.
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // scrape responses are best-effort
  }
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(std::function<std::string()> body)
    : body_(std::move(body)),
      listener_([this](int fd) { HandleConnection(fd); }) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start(uint16_t port) {
  OPT_RETURN_IF_ERROR(listener_.ListenTcp(port));
  return listener_.Start();
}

void MetricsHttpServer::Stop() { listener_.Stop(); }

void MetricsHttpServer::HandleConnection(int fd) {
  // Read until the end of the request head (or 4 KiB, whichever first);
  // only the request line matters.
  std::string head;
  char buf[1024];
  while (head.size() < 4096 &&
         head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      head.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  const bool is_get = head.compare(0, 4, "GET ") == 0;
  const size_t path_end = head.find(' ', 4);
  const std::string path =
      is_get && path_end != std::string::npos ? head.substr(4, path_end - 4)
                                              : std::string();
  std::string response;
  if (path == "/metrics" || path == "/") {
    const std::string body = body_();
    response = "HTTP/1.0 200 OK\r\n"
               "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
               "Content-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
  } else {
    const std::string body = "not found; scrape /metrics\n";
    response = "HTTP/1.0 404 Not Found\r\n"
               "Content-Type: text/plain\r\nContent-Length: " +
               std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
  }
  WriteAll(fd, response);
}

}  // namespace opt

// A scripted HTTP peer for fault tests: a loopback listening socket served
// by one thread, which answers each request with the bytes the test's
// script returns — well framed or not — and then keeps the connection
// open, closes it, or resets it (SO_LINGER 0). Requests are read with the
// server's own parser, web::detail::parse_request.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "web/http.hpp"

namespace ricsa_test {

class ScriptedServer {
 public:
  enum class After { kKeepOpen, kClose, kReset };
  struct Reply {
    std::string bytes;
    After after = After::kKeepOpen;
  };
  /// Runs on the server thread, once per request.
  using Script = std::function<Reply(const ricsa::web::HttpRequest&)>;

  explicit ScriptedServer(Script script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd_, 16) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
    thread_ = std::thread([this] { run(); });
  }
  ~ScriptedServer() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  int port() const noexcept { return port_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::size_t scanned = 0;  // parse_request's search offset into `in`
  };

  void run() {
    std::vector<Conn> conns;
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents != 0 && !serve(conns[i - 1])) {
          ::close(conns[i - 1].fd);
          conns[i - 1].fd = -1;
        }
      }
      conns.erase(std::remove_if(conns.begin(), conns.end(),
                                 [](const Conn& c) { return c.fd < 0; }),
                  conns.end());
      if ((fds[0].revents & POLLIN) != 0) {
        Conn conn;
        conn.fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (conn.fd < 0) continue;
        // A bounded send: a peer that stops reading a long reply (it
        // refused the reply early) must not wedge the server thread.
        const timeval tv{1, 0};
        ::setsockopt(conn.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        conns.push_back(std::move(conn));
      }
    }
    for (const Conn& c : conns) ::close(c.fd);
  }

  /// Read what arrived and answer every complete request. False when the
  /// peer left or the reply ended the connection.
  bool serve(Conn& c) {
    char buf[4096];
    const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
    if (got <= 0) return false;
    c.in.append(buf, static_cast<std::size_t>(got));
    ricsa::web::HttpRequest request;
    while (ricsa::web::detail::parse_request(c.in, request, c.scanned) ==
           ricsa::web::detail::ParseResult::kOk) {
      const Reply reply = script_(request);
      request = ricsa::web::HttpRequest();
      ricsa::web::detail::write_all(c.fd, reply.bytes.data(),
                                    reply.bytes.size());
      if (reply.after == After::kReset) {
        const linger abort{1, 0};
        ::setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
      }
      if (reply.after != After::kKeepOpen) return false;
    }
    return true;
  }

  Script script_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace ricsa_test

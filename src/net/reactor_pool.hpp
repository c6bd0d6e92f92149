// A fixed set of reactor threads — the horizontal axis of the event layer.
//
// One Reactor saturates one core once enough connections are live; a
// ReactorPool owns N reactors and runs each on its own thread. Nothing is
// shared between them: every connection is *owned* by exactly one reactor
// (chosen at accept time) and all of its state, timers, and buffers live on
// that loop thread, so the wire path takes no cross-reactor locks. Work
// that must reach a connection from elsewhere (hub completions, stream
// producers) posts to the connection's home reactor.
//
// The pool is constructed with its reactors but starts their threads
// explicitly, so callers can register fds/timers on reactor(i) before the
// loops run (Reactor's "before run()" registration window).
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "net/reactor.hpp"

namespace ricsa::net {

class ReactorPool {
 public:
  /// Create `n` reactors (clamped to >= 1). Threads are not started.
  explicit ReactorPool(std::size_t n = 1);
  ~ReactorPool();
  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  std::size_t size() const noexcept { return reactors_.size(); }
  Reactor& reactor(std::size_t i) const { return *reactors_[i]; }
  /// Shared handle — completion structs hold this so a post() after stop()
  /// lands in a drained queue instead of a destroyed reactor.
  const std::shared_ptr<Reactor>& reactor_ptr(std::size_t i) const {
    return reactors_[i];
  }

  /// Grow or shrink to `n` reactors (clamped to >= 1). Only before start():
  /// existing reactors keep their identity (callers may already hold
  /// reactor(0) for pre-start timer registration); extras must not have
  /// anything registered when shrunk away.
  void resize(std::size_t n);

  /// Start one loop thread per reactor. Idempotent per pool (single-shot).
  void start();
  /// Stop every reactor and join the loop threads. Callers that need
  /// per-reactor teardown (closing fds where they live) should post those
  /// tasks before calling stop(); Reactor::run drains tasks posted before
  /// stop, so they are guaranteed to execute.
  void stop();
  bool started() const noexcept { return started_; }

 private:
  std::vector<std::shared_ptr<Reactor>> reactors_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

}  // namespace ricsa::net

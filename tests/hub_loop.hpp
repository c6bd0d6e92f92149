// An event loop for tests that drive a FrameHub or HubRegistry without an
// HTTP server: a net::Reactor running on its own thread, plus a blocking
// wait built on FrameHub::wait_async.
//
// Declare the loop before the hubs it runs, so it outlives them.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "net/reactor.hpp"
#include "web/hub.hpp"

namespace ricsa_test {

class HubLoop {
 public:
  HubLoop() : thread_([this] { reactor_.run(); }) {}
  ~HubLoop() {
    reactor_.stop();
    thread_.join();
  }
  HubLoop(const HubLoop&) = delete;
  HubLoop& operator=(const HubLoop&) = delete;

  ricsa::net::Reactor* get() { return &reactor_; }

 private:
  ricsa::net::Reactor reactor_;
  std::thread thread_;
};

/// Block until `hub` serves a frame newer than `since`, or until the
/// timeout (null).
inline ricsa::web::FramePtr wait_for(ricsa::web::FrameHub& hub,
                                     std::uint64_t since, double timeout_s) {
  auto promise = std::make_shared<std::promise<ricsa::web::FramePtr>>();
  std::future<ricsa::web::FramePtr> result = promise->get_future();
  hub.wait_async(since, timeout_s, [promise](ricsa::web::FramePtr frame) {
    promise->set_value(std::move(frame));
  });
  return result.get();
}

}  // namespace ricsa_test

// Epoll reactor: one event loop driving many non-blocking connections.
//
// The thread-per-connection web server parks one kernel-blocked read and a
// full thread stack per idle long-poll client, which caps fan-out around a
// thousand browsers. The reactor inverts that: every connection registers
// an EventHandler for readiness events on one epoll instance, and a single
// loop thread dispatches them and runs the work that never blocks (the web
// server's route handlers); blocking work (frame rendering) lives on other
// threads. Idle clients then cost one fd and a few hundred bytes of state
// — the 10k+ regime the ROADMAP's fan-out item asks for.
//
// Three event sources share the loop:
//  * I/O readiness — level-triggered epoll on registered fds;
//  * timers — a hashed TimerWheel (poll timeouts, idle deadlines, pacing);
//  * cross-thread tasks — post() enqueues a closure and wakes the loop via
//    eventfd; hub completions and asynchronous responses reach the loop
//    thread this way.
//
// Threading contract: add/modify/remove and the timer API are loop-thread
// only (or before run() starts); post() and stop() are thread-safe. All
// connection state lives on the loop thread, so connection code needs no
// locks at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/timer_wheel.hpp"

namespace ricsa::net {

/// Readiness callback for one registered fd. `events` carries the raw
/// EPOLL* bits (EPOLLIN, EPOLLOUT, EPOLLHUP, EPOLLERR, EPOLLRDHUP).
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(std::uint32_t events) = 0;
};

class Reactor {
 public:
  using Clock = std::chrono::steady_clock;
  using Task = std::function<void()>;

  struct Stats {
    std::uint64_t loops = 0;         // epoll_wait returns
    std::uint64_t io_events = 0;     // handler dispatches
    std::uint64_t timers_fired = 0;  // wheel callbacks run
    std::uint64_t tasks_run = 0;     // posted closures run
    std::size_t fds = 0;             // currently registered fds
    std::size_t timers_pending = 0;
  };

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Run the loop on the calling thread until stop(). Tasks already posted
  /// are drained before the first wait and once more after the loop exits,
  /// so a post() that happened-before stop() is never silently dropped.
  void run();
  /// Thread-safe; wakes the loop. Idempotent. After the loop thread
  /// returns from run(), later post()s are dropped (their closures are
  /// destroyed without running).
  void stop();
  bool running() const noexcept { return running_.load(); }
  bool in_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

  // -- fd registration (loop thread, or before run()) ----------------------
  /// False when epoll_ctl(ADD) fails (e.g. ENOSPC against
  /// fs.epoll.max_user_watches at extreme fan-out) — the fd will never
  /// receive events, so the caller must not track the connection as live.
  [[nodiscard]] bool add(int fd, std::uint32_t events, EventHandler* handler);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  // -- timers (loop thread only) -------------------------------------------
  std::uint64_t run_at(Clock::time_point when, Task task);
  std::uint64_t run_after(double delay_s, Task task);
  bool cancel(std::uint64_t timer_id);

  // -- cross-thread --------------------------------------------------------
  /// Queue `task` for the loop thread and wake it. Returns false (dropping
  /// the task) once the loop has exited for good.
  bool post(Task task);

  Stats stats() const;

 private:
  void drain_tasks();
  void wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  TimerWheel wheel_;
  /// fd -> handler. epoll events carry the fd; dispatch goes through this
  /// map so a handler removed earlier in the same batch is skipped instead
  /// of dereferenced. (A same-batch fd reuse can still surface one spurious
  /// level-triggered event to the new handler; non-blocking reads shrug it
  /// off as EAGAIN.)
  std::unordered_map<int, EventHandler*> handlers_;

  std::mutex tasks_mutex_;
  std::vector<Task> tasks_;
  bool drained_ = false;  // loop exited; post() must refuse

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread::id loop_thread_;

  std::atomic<std::uint64_t> loops_{0};
  std::atomic<std::uint64_t> io_events_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  /// Cross-thread mirrors of loop-thread-only structures, for stats().
  std::atomic<std::size_t> fds_{0};
  std::atomic<std::size_t> timers_pending_{0};
};

}  // namespace ricsa::net

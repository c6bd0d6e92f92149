#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

namespace ricsa::net {

Reactor::Reactor() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("reactor: epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("reactor: eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

Reactor::~Reactor() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter already guarantees a wakeup; ignore EAGAIN.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

bool Reactor::post(Task task) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    if (drained_) return false;
    first = tasks_.empty();
    tasks_.push_back(std::move(task));
  }
  // Only the first task of a batch needs a wakeup: the loop drains them all.
  // (A hub fan-out posts one task per client.)
  if (first) wake();
  return true;
}

void Reactor::drain_tasks() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) {
    task();
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::run() {
  loop_thread_ = std::this_thread::get_id();
  running_.store(true);
  drain_tasks();

  epoll_event events[512];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep until the soonest timer is due (rounded up, so the wake always
    // finds it fireable) or an fd event / posted-task eventfd wakeup —
    // an idle server with parked connections burns no periodic ticks.
    int timeout_ms = -1;
    const Clock::time_point next = wheel_.next_expiry();
    if (next != Clock::time_point::max()) {
      const auto until = next - Clock::now();
      timeout_ms = until.count() <= 0
                       ? 0
                       : static_cast<int>(std::min<std::int64_t>(
                             std::chrono::duration_cast<
                                 std::chrono::milliseconds>(
                                 until + std::chrono::microseconds(999))
                                 .count(),
                             60000));
    }
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               timeout_ms);
    loops_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      // Look the handler up per event: an earlier handler in this batch may
      // have removed this fd (e.g. closed a connection).
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      io_events_.fetch_add(1, std::memory_order_relaxed);
      it->second->on_event(events[i].events);
    }
    timers_fired_.fetch_add(wheel_.advance(Clock::now()),
                            std::memory_order_relaxed);
    timers_pending_.store(wheel_.pending(), std::memory_order_relaxed);
    drain_tasks();
  }

  // Final drain: tasks posted before stop() still run (shutdown sequences
  // rely on this); afterwards post() refuses and closures are simply freed.
  drain_tasks();
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    drained_ = true;
  }
  running_.store(false);
}

void Reactor::stop() {
  stopping_.store(true, std::memory_order_release);
  wake();
}

bool Reactor::add(int fd, std::uint32_t events, EventHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = handler;
  fds_.store(handlers_.size(), std::memory_order_relaxed);
  return true;
}

void Reactor::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Reactor::remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
  fds_.store(handlers_.size(), std::memory_order_relaxed);
}

std::uint64_t Reactor::run_at(Clock::time_point when, Task task) {
  return wheel_.schedule(when, std::move(task));
}

std::uint64_t Reactor::run_after(double delay_s, Task task) {
  if (delay_s < 0.0) delay_s = 0.0;
  return run_at(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay_s)),
                std::move(task));
}

bool Reactor::cancel(std::uint64_t timer_id) { return wheel_.cancel(timer_id); }

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.loops = loops_.load(std::memory_order_relaxed);
  s.io_events = io_events_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  // Mirrors maintained by the loop thread: handlers_/wheel_ themselves are
  // loop-thread-only, but stats() is callable from anywhere.
  s.fds = fds_.load(std::memory_order_relaxed);
  s.timers_pending = timers_pending_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ricsa::net

#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace ricsa::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.emplace([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return fut;
}

namespace {

/// Grains per participating thread: enough that a thread stuck on a costly
/// grain leaves the rest to the others, few enough that claiming stays
/// negligible.
constexpr std::size_t kGrainsPerThread = 4;

/// One parallel_for call's shared state. Helper tasks hold it by
/// shared_ptr because they may start after the call has returned; they
/// touch `body` only after claiming a grain, and the call cannot return
/// while a claimed grain is unfinished.
struct ParallelJob {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t grains = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};  // grains finished or skipped
  /// Lowest grain that has thrown so far (grains when none has).
  std::atomic<std::size_t> first_failure{0};
  /// One slot per grain, written only by the thread that ran it.
  std::vector<std::exception_ptr> errors;
  std::mutex mutex;
  bool all_done = false;  // guarded by mutex; set by the last grain
  std::condition_variable finished;

  void run() {
    while (true) {
      const std::size_t g = next++;
      if (g >= grains) return;
      // Grains above a failed one are skipped (serial semantics: nothing
      // after the first throw runs); lower ones still run, so the lowest
      // throwing grain always reports.
      if (g < first_failure) {
        const std::size_t lo = begin + g * grain;
        try {
          (*body)(lo, std::min(end, lo + grain));
        } catch (...) {
          errors[g] = std::current_exception();
          std::size_t seen = first_failure;
          while (g < seen && !first_failure.compare_exchange_weak(seen, g)) {
          }
        }
      }
      if (++done == grains) {
        std::lock_guard<std::mutex> lock(mutex);
        all_done = true;
        finished.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  auto job = std::make_shared<ParallelJob>();
  job->body = &body;
  job->begin = begin;
  job->end = end;
  job->grain =
      std::max<std::size_t>(1, total / ((size() + 1) * kGrainsPerThread));
  job->grains = (total + job->grain - 1) / job->grain;
  job->first_failure = job->grains;
  job->errors.resize(job->grains);
  const std::size_t helpers = std::min(size(), job->grains - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([job] { job->run(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job->run();
  // Every grain has been claimed; wait for the ones still running on
  // workers. The caller may destroy `body` (and the data it references)
  // the moment we return or propagate, so none can still be running then.
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->finished.wait(lock, [&] { return job->all_done; });
  }
  // Take the exceptions over before rethrowing: a late helper task may
  // drop the last reference to the job after we return, and the exception
  // objects must not be released from its thread while ours handles one.
  const std::vector<std::exception_ptr> errors = std::move(job->errors);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, body);
  } else if (begin < end) {
    body(begin, end);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace ricsa::util

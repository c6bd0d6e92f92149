// Fixed-size worker pool with a blocking task queue and a parallel_for
// helper. This is the substrate for the "MPI-based visualization modules on
// the cluster CS nodes" of the paper: the solver's pencil sweeps, marching
// cubes, ray casting, rasterization and the hub's PNG encodes run their
// index ranges through it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ricsa::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  /// Run body(grain_begin, grain_end) over small contiguous grains covering
  /// [begin, end) exactly once; blocks until all finish. The workers and
  /// the calling thread claim grains from one atomic cursor, so uneven
  /// ranges balance themselves and a nested or concurrent call never waits
  /// on a queued task. After a grain throws, grains above it are skipped;
  /// every started grain finishes before the lowest-index grain's
  /// exception is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// pool->parallel_for, or body(begin, end) on the caller when pool is null:
/// the kernels' "null pool means serial" idiom.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ricsa::util

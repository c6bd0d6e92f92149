// Thread count of the running process, for thread-budget assertions.
#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace ricsa_test {

/// The `Threads:` field of /proc/self/status: every thread of the process,
/// the test's own included, so a test compares the count after starting
/// something against a baseline_threads() taken before. Each ctest case
/// runs in a process of its own, so no other case's threads come or go in
/// between.
inline long process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

/// The count before a test starts anything. ThreadSanitizer's runtime
/// starts a thread of its own when the process first creates one, so one
/// is started and joined first, and the count is read once the joined
/// thread has left it.
inline long baseline_threads() {
  std::thread([] {}).join();
  long count = process_threads();
  for (long previous = -1; count != previous;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    previous = count;
    count = process_threads();
  }
  return count;
}

}  // namespace ricsa_test

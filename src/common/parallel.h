// Fork-join fan-out of an index range over worker threads. Work is split
// into fixed contiguous chunks that depend only on (n, threads), and each
// index is visited by exactly one thread, so a loop whose iterations write
// disjoint outputs gives the same result for any thread count.
#ifndef RC_SRC_COMMON_PARALLEL_H_
#define RC_SRC_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace rc {

// std::thread::hardware_concurrency(), or 1 when the platform cannot tell.
inline size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Calls fn(begin, end) on consecutive chunks of ceil(n / threads) indices
// covering [0, n), one chunk per thread; the calling thread takes the first
// chunk. Returns once every chunk is done, rethrowing the first exception
// (in chunk order) that any of them threw. Runs fn(0, n) inline when
// threads <= 1.
template <typename Fn>
void ParallelFor(size_t n, size_t threads, Fn&& fn) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    if (n > 0) fn(size_t{0}, n);
    return;
  }
  const size_t per = (n + threads - 1) / threads;
  const size_t chunks = (n + per - 1) / per;
  std::vector<std::exception_ptr> errors(chunks);
  auto run = [&](size_t c) {
    try {
      fn(c * per, std::min(n, (c + 1) * per));
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  {
    // jthread joins on destruction, so no path leaves a worker running.
    std::vector<std::jthread> workers;
    workers.reserve(chunks - 1);
    for (size_t c = 1; c < chunks; ++c) workers.emplace_back(run, c);
    run(0);
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace rc

#endif  // RC_SRC_COMMON_PARALLEL_H_

#include "src/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace rc {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnceInContiguousChunks) {
  for (size_t n : {0, 1, 2, 7, 64, 1000}) {
    for (size_t threads : {0, 1, 2, 3, 4, 8, 2000}) {
      std::vector<int> visits(n, 0);
      std::atomic<size_t> chunks{0};
      ParallelFor(n, threads, [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        for (size_t i = begin; i < end; ++i) ++visits[i];
        chunks.fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i], 1) << "n=" << n << " i=" << i;
      EXPECT_LE(chunks.load(), std::max<size_t>(threads, 1)) << "n=" << n;
    }
  }
}

TEST(ParallelForTest, RethrowsAfterEveryChunkFinishes) {
  std::atomic<int> finished{0};
  EXPECT_THROW(ParallelFor(8, 4, [&](size_t begin, size_t) {
                 if (begin == 4) throw std::runtime_error("chunk failed");
                 finished.fetch_add(1, std::memory_order_relaxed);
               }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace rc

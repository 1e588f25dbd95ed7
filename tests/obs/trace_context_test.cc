// Trace-context layer: the thread-local context stack under nested
// TraceSpans, deterministic 1-in-N root sampling, synthetic spans and
// follows-from links, span timing into a histogram, and the TraceStore
// lifecycle (finish classification, per-bucket reservoir, late spans after
// retention, bounded active map).
#include "src/obs/trace_context.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rc::obs {
namespace {

class TraceContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceStore::Global().Clear();
    Tracer::Global().SetSampleEvery(0);
  }
  void TearDown() override {
    Tracer::Global().SetSampleEvery(0);
    TraceStore::Global().Clear();
  }
};

// Unfinished traces the store holds, as /tracez reports them.
int ActiveTraces() {
  const std::string json = TraceStore::Global().TracezJson();
  const size_t pos = json.find("\"active\":");
  return pos == std::string::npos ? -1 : std::stoi(json.substr(pos + 9));
}

// With no histogram and no sampled context a span touches nothing.
TEST_F(TraceContextTest, NoContextByDefault) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    TraceSpan span("test/untracked");
    EXPECT_FALSE(CurrentTraceContext().valid());
    EXPECT_FALSE(span.context().valid());
  }
  EXPECT_EQ(ActiveTraces(), 0);
  EXPECT_EQ(TraceStore::Global().finished_count(), 0u);
}

TEST_F(TraceContextTest, UnsampledSpanTimesItsHistogramOnly) {
  Histogram h;
  {
    TraceSpan span("test/timed", &h);
    EXPECT_FALSE(span.context().valid());
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  EXPECT_EQ(h.TakeSnapshot().count, 1u);
  EXPECT_EQ(ActiveTraces(), 0);
  EXPECT_EQ(TraceStore::Global().finished_count(), 0u);
  EXPECT_EQ(TraceStore::Global().TracezJson().find("test/timed"), std::string::npos);
}

// A sampled span feeds its histogram and its SpanRecord from one clock pair:
// the one sample equals the record's duration_ns / 1000 at the precision
// /tracez renders (0.1 us).
TEST_F(TraceContextTest, SampledSpanTimesHistogramAndRecordFromOneClockPair) {
  Tracer::Global().SetSampleEvery(1);
  const TraceContext root = Tracer::Global().StartTrace();
  ASSERT_TRUE(root.valid());
  Histogram h;
  {
    ScopedTraceContext scope(root);
    TraceSpan span("test/timed", &h);
    EXPECT_TRUE(span.context().valid());
  }
  const Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_EQ(TraceStore::Global().finished_count(), 1u);
  char dur[64];
  std::snprintf(dur, sizeof(dur), "\"dur_us\":%.1f", snap.sum);
  const std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("test/timed"), std::string::npos);
  EXPECT_NE(json.find(dur), std::string::npos) << dur << " not in " << json;
}

TEST_F(TraceContextTest, SamplingIsDeterministicOneInN) {
  Tracer::Global().SetSampleEvery(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (Tracer::Global().StartTrace().valid()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  Tracer::Global().SetSampleEvery(0);
  EXPECT_FALSE(Tracer::Global().StartTrace().valid());
}

TEST_F(TraceContextTest, NestedSpansFormParentLinkedTree) {
  Tracer::Global().SetSampleEvery(1);
  TraceContext root_ctx = Tracer::Global().StartTrace();
  ASSERT_TRUE(root_ctx.valid());
  EXPECT_EQ(root_ctx.span_id, 0u);  // root span will be parentless

  uint64_t root_span_id = 0;
  {
    TraceSpan root("test/root", root_ctx);
    root_span_id = root.context().span_id;
    EXPECT_EQ(CurrentTraceContext().span_id, root_span_id);
    {
      TraceSpan child("test/child");
      EXPECT_EQ(CurrentTraceContext().span_id, child.context().span_id);
      TraceSpan grandchild("test/grandchild");
      EXPECT_EQ(grandchild.context().trace_id, root_ctx.trace_id);
    }
    // Stack unwound back to the root span.
    EXPECT_EQ(CurrentTraceContext().span_id, root_span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());

  // The finished (root ended => trace finished) tree is on /tracez.
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("test/root"), std::string::npos);
  EXPECT_NE(json.find("test/child"), std::string::npos);
  EXPECT_NE(json.find("test/grandchild"), std::string::npos);
  EXPECT_EQ(TraceStore::Global().finished_count(), 1u);
}

TEST_F(TraceContextTest, ScopedContextInstallsAndRestores) {
  TraceContext wire{0x1234, 0x5678, true};
  {
    ScopedTraceContext scope(wire);
    EXPECT_EQ(CurrentTraceContext().trace_id, 0x1234u);
    TraceSpan span("test/handler");
    EXPECT_EQ(span.context().trace_id, 0x1234u);
    EXPECT_NE(span.context().span_id, 0x5678u);  // own id, parented under wire
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(TraceContextTest, RecordSpanUnderRendersInJson) {
  TraceContext parent{0xABC, 0xDEF, true};
  uint64_t id = RecordSpanUnder("test/synthetic", parent, 1000, 500);
  EXPECT_NE(id, 0u);
  TraceStore::Global().FinishTrace(parent.trace_id, 123'000);
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("test/synthetic"), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\"0xdef\""), std::string::npos);

  // Unsampled parents record nothing.
  EXPECT_EQ(RecordSpanUnder("test/nope", TraceContext{}, 0, 0), 0u);
}

TEST_F(TraceContextTest, FinishClassifiesIntoLatencyBuckets) {
  // 50us -> first bucket (<=100us); 50ms -> fourth (<=100ms).
  TraceContext fast{0x1, 0x0, true};
  RecordSpanUnder("test/fast", fast, 0, 50'000);
  TraceStore::Global().FinishTrace(0x1, 50'000);
  TraceContext slow{0x2, 0x0, true};
  RecordSpanUnder("test/slow", slow, 0, 50'000'000);
  TraceStore::Global().FinishTrace(0x2, 50'000'000);

  std::string json = TraceStore::Global().TracezJson();
  // Both buckets show one seen trace; ids render in their bucket.
  EXPECT_NE(json.find("\"le_us\":100,\"seen\":1"), std::string::npos);
  EXPECT_NE(json.find("\"le_us\":100000,\"seen\":1"), std::string::npos);
  EXPECT_EQ(TraceStore::Global().finished_count(), 2u);
}

TEST_F(TraceContextTest, FinishIsIdempotentPerTrace) {
  TraceContext ctx{0x9, 0x0, true};
  RecordSpanUnder("test/span", ctx, 0, 1000);
  TraceStore::Global().FinishTrace(0x9, 10'000);      // first caller classifies
  TraceStore::Global().FinishTrace(0x9, 99'000'000);  // loopback double-finish
  EXPECT_EQ(TraceStore::Global().finished_count(), 1u);
  std::string json = TraceStore::Global().TracezJson();
  // Classified by the first finish (10us bucket), not the second.
  EXPECT_NE(json.find("\"le_us\":100,\"seen\":1"), std::string::npos);
}

TEST_F(TraceContextTest, RetainedTracesAbsorbLateSpans) {
  TraceContext ctx{0x42, 0x0, true};
  RecordSpanUnder("test/early", ctx, 0, 1000);
  TraceStore::Global().FinishTrace(0x42, 5'000);
  // The response-write span lands after the finish (server flushes last).
  RecordSpanUnder("test/late", ctx, 2000, 700);
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("test/early"), std::string::npos);
  EXPECT_NE(json.find("test/late"), std::string::npos);
}

TEST_F(TraceContextTest, ReservoirKeepsAtMostKPerBucket) {
  static_assert(TraceStore::kTracesPerBucket < 20);
  for (uint64_t i = 1; i <= 20; ++i) {
    TraceContext ctx{i, 0x0, true};
    RecordSpanUnder("test/one", ctx, 0, 1000);
    TraceStore::Global().FinishTrace(i, 1'000);  // all in the first bucket
  }
  std::string json = TraceStore::Global().TracezJson();
  EXPECT_NE(json.find("\"seen\":20"), std::string::npos);
  // Exactly K retained trace objects render.
  size_t count = 0;
  for (size_t pos = json.find("\"trace_id\""); pos != std::string::npos;
       pos = json.find("\"trace_id\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, TraceStore::kTracesPerBucket);
}

TEST_F(TraceContextTest, ActiveMapIsBounded) {
  // More traces than the map holds, none finished: the active map must not
  // grow unboundedly.
  constexpr uint64_t kTraces = TraceStore::kMaxActiveTraces + 100;
  for (uint64_t i = 1; i <= kTraces; ++i) {
    TraceContext ctx{i, 0x0, true};
    RecordSpanUnder("test/leak", ctx, 0, 1000);
  }
  const int active = ActiveTraces();
  ASSERT_GE(active, 0);
  EXPECT_LE(static_cast<size_t>(active), TraceStore::kMaxActiveTraces);
}

TEST_F(TraceContextTest, SpanIdsUniqueAcrossThreads) {
  Tracer::Global().SetSampleEvery(1);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceContext ctx = Tracer::Global().StartTrace();
        TraceSpan span("test/mt", ctx);
        ids[static_cast<size_t>(t)].push_back(span.context().span_id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<uint64_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

// Every sampled root span finished concurrently is offered to the store.
// Each round's traces fit in the active map, so none can be evicted between
// its span record and its finish however the threads interleave.
TEST_F(TraceContextTest, ConcurrentRootSpansAllFinish) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  static_assert(kThreads * kPerThread <= TraceStore::kMaxActiveTraces);
  Tracer::Global().SetSampleEvery(1);
  for (int round = 0; round < 8; ++round) {
    TraceStore::Global().Clear();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kPerThread; ++i) {
          TraceSpan span("test/concurrent", Tracer::Global().StartTrace());
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(TraceStore::Global().finished_count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
  }
}

}  // namespace
}  // namespace rc::obs

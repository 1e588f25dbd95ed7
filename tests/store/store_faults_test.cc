// Fault injection at the store boundary: every failure mode the client must
// degrade around — I/O errors, torn writes, corrupt bytes in flight and at
// rest, injected latency — is simulated here via rc::faults and must be
// observable (status codes, checksum mismatches), deterministic, and
// strictly scoped to its arming window.
#include <chrono>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/common/faults.h"
#include "src/store/disk_cache.h"
#include "src/store/kv_store.h"

namespace rc::store {
namespace {

namespace faults = rc::faults;

std::vector<uint8_t> Payload(size_t n, uint8_t fill) { return std::vector<uint8_t>(n, fill); }

class StoreFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::Registry::Global().DisarmAll(); }
  void TearDown() override { faults::Registry::Global().DisarmAll(); }
};

TEST_F(StoreFaultsTest, TryGetReportsDistinctStatuses) {
  KvStore store;
  EXPECT_EQ(store.TryGet("absent").status, KvStore::GetStatus::kNotFound);

  ASSERT_NE(store.Put("key", Payload(64, 0x11)), 0u);
  auto hit = store.TryGet("key");
  EXPECT_EQ(hit.status, KvStore::GetStatus::kOk);
  EXPECT_TRUE(hit.ok());
  EXPECT_TRUE(VerifyBlob(hit.blob));

  store.SetAvailable(false);
  auto down = store.TryGet("key");
  EXPECT_EQ(down.status, KvStore::GetStatus::kUnavailable);
  EXPECT_TRUE(down.failed());

  store.SetAvailable(true);
  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  faults::ScopedFault fault("kv/get", err);
  auto failed = store.TryGet("key");
  EXPECT_EQ(failed.status, KvStore::GetStatus::kError);
  EXPECT_TRUE(failed.failed());
}

TEST_F(StoreFaultsTest, PutErrorDropsWriteAndSkipsListeners) {
  KvStore store;
  int notified = 0;
  store.Subscribe([&](const std::string&, const VersionedBlob&) { ++notified; });

  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  err.max_fires = 1;
  faults::Registry::Global().Arm("kv/put", err);

  EXPECT_EQ(store.Put("key", Payload(32, 0x22)), 0u);  // dropped
  EXPECT_EQ(notified, 0);
  EXPECT_EQ(store.TryGet("key").status, KvStore::GetStatus::kNotFound);

  EXPECT_NE(store.Put("key", Payload(32, 0x22)), 0u);  // one-shot expired
  EXPECT_EQ(notified, 1);
}

TEST_F(StoreFaultsTest, CorruptOnReadIsTransientAndChecksumDetected) {
  KvStore store;
  ASSERT_NE(store.Put("key", Payload(128, 0x33)), 0u);

  faults::FaultSpec corrupt;
  corrupt.kind = faults::FaultKind::kCorrupt;
  corrupt.max_fires = 1;
  faults::Registry::Global().Arm("kv/get", corrupt);

  auto bad = store.TryGet("key");
  ASSERT_TRUE(bad.ok());  // the read "succeeds" — only the checksum catches it
  EXPECT_FALSE(VerifyBlob(bad.blob));

  // Read-side corruption mangles the caller's copy, not the stored bytes:
  // the very next read is clean again.
  auto good = store.TryGet("key");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(VerifyBlob(good.blob));
  EXPECT_EQ(good.blob.data, Payload(128, 0x33));
}

TEST_F(StoreFaultsTest, CorruptOnWriteIsPersistentUntilRepublish) {
  KvStore store;
  faults::FaultSpec corrupt;
  corrupt.kind = faults::FaultKind::kCorrupt;
  corrupt.max_fires = 1;
  faults::Registry::Global().Arm("kv/put", corrupt);

  // The CRC is stamped before the corruption lands, so every subsequent read
  // of this version fails verification — corruption-at-rest.
  ASSERT_NE(store.Put("key", Payload(128, 0x44)), 0u);
  for (int i = 0; i < 3; ++i) {
    auto got = store.TryGet("key");
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(VerifyBlob(got.blob));
  }

  // A clean republish heals it.
  ASSERT_NE(store.Put("key", Payload(128, 0x44)), 0u);
  auto healed = store.TryGet("key");
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(VerifyBlob(healed.blob));
}

TEST_F(StoreFaultsTest, TornWriteShortensPayloadAndFailsChecksum) {
  KvStore store;
  faults::FaultSpec torn;
  torn.kind = faults::FaultKind::kTruncate;
  torn.truncate_to = 10;
  torn.max_fires = 1;
  faults::Registry::Global().Arm("kv/put", torn);

  ASSERT_NE(store.Put("key", Payload(100, 0x55)), 0u);
  auto got = store.TryGet("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.blob.data.size(), 10u);
  EXPECT_FALSE(VerifyBlob(got.blob));
}

TEST_F(StoreFaultsTest, InjectedLatencyDelaysReads) {
  KvStore store;  // simulate_latency off: only the injected latency applies
  ASSERT_NE(store.Put("key", Payload(16, 0x66)), 0u);

  faults::FaultSpec slow;
  slow.kind = faults::FaultKind::kLatency;
  slow.latency_us = 20'000;  // 20 ms, far above scheduling noise
  faults::ScopedFault fault("kv/get", slow);

  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(store.TryGet("key").ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(), 15'000);
}

class DiskCacheFaultsTest : public StoreFaultsTest {
 protected:
  DiskCacheFaultsTest()
      : dir_(std::filesystem::temp_directory_path() /
             (std::string("rc_disk_faults_test_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    std::filesystem::remove_all(dir_);
  }
  ~DiskCacheFaultsTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DiskCacheFaultsTest, WriteErrorLeavesNoEntry) {
  DiskCache cache(dir_, 3600);
  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  err.max_fires = 1;
  faults::Registry::Global().Arm("disk/write", err);

  VersionedBlob blob{7, Payload(64, 0x77)};
  cache.Put("key", blob, 1000);
  EXPECT_FALSE(cache.Get("key", 1000).has_value());

  cache.Put("key", blob, 1000);  // fault expired
  auto got = cache.Get("key", 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 7u);
  EXPECT_EQ(got->data, blob.data);
  EXPECT_TRUE(VerifyBlob(*got));
}

TEST_F(DiskCacheFaultsTest, TornFrameOnDiskRejected) {
  DiskCache cache(dir_, 3600);
  faults::FaultSpec torn;
  torn.kind = faults::FaultKind::kTruncate;
  torn.truncate_to = 20;  // cuts into the 36-byte header
  torn.max_fires = 1;
  faults::Registry::Global().Arm("disk/write", torn);

  cache.Put("key", VersionedBlob{1, Payload(200, 0x88)}, 1000);
  EXPECT_FALSE(cache.Get("key", 1000).has_value());
}

TEST_F(DiskCacheFaultsTest, CorruptFrameOnDiskCaughtByCrc) {
  DiskCache cache(dir_, 3600);
  faults::FaultSpec corrupt;
  corrupt.kind = faults::FaultKind::kCorrupt;
  corrupt.max_fires = 1;
  faults::Registry::Global().Arm("disk/write", corrupt);

  cache.Put("key", VersionedBlob{1, Payload(200, 0x99)}, 1000);
  // The flips may land anywhere in the sealed frame; header damage (magic,
  // length) and payload damage (CRC) must both reject the entry.
  EXPECT_FALSE(cache.Get("key", 1000).has_value());

  // Clean rewrite recovers.
  cache.Put("key", VersionedBlob{2, Payload(200, 0x99)}, 1000);
  auto got = cache.Get("key", 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 2u);
}

TEST_F(DiskCacheFaultsTest, ReadFaultsAreTransient) {
  DiskCache cache(dir_, 3600);
  cache.Put("key", VersionedBlob{3, Payload(64, 0xAA)}, 1000);

  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  err.max_fires = 1;
  faults::Registry::Global().Arm("disk/read", err);
  EXPECT_FALSE(cache.Get("key", 1000).has_value());
  EXPECT_TRUE(cache.Get("key", 1000).has_value());  // file untouched

  faults::FaultSpec corrupt;
  corrupt.kind = faults::FaultKind::kCorrupt;
  corrupt.max_fires = 1;
  faults::Registry::Global().Arm("disk/read", corrupt);
  EXPECT_FALSE(cache.Get("key", 1000).has_value());  // in-flight corruption
  auto got = cache.Get("key", 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, Payload(64, 0xAA));
}

}  // namespace
}  // namespace rc::store

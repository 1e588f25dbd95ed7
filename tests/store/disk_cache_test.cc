#include "src/store/disk_cache.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

namespace rc::store {
namespace {

class DiskCacheTest : public ::testing::Test {
 protected:
  // One directory per test case: ctest runs each case in its own process,
  // concurrently, and a shared directory would let them wipe each other.
  DiskCacheTest()
      : dir_(::testing::TempDir() + "/rc_disk_cache_test_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
    std::filesystem::remove_all(dir_);
  }
  ~DiskCacheTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

VersionedBlob Blob(uint64_t version, std::initializer_list<uint8_t> data) {
  return VersionedBlob{version, std::vector<uint8_t>{data}};
}

TEST_F(DiskCacheTest, PutGetRoundTrip) {
  DiskCache cache(dir_, /*expiry_seconds=*/3600);
  cache.Put("model/X", Blob(3, {1, 2, 3}), /*now_unix=*/1000);
  auto got = cache.Get("model/X", 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 3u);
  EXPECT_EQ(got->data, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(DiskCacheTest, MissingKey) {
  DiskCache cache(dir_, 3600);
  EXPECT_FALSE(cache.Get("absent").has_value());
}

TEST_F(DiskCacheTest, ExpiredEntriesIgnored) {
  DiskCache cache(dir_, /*expiry_seconds=*/100);
  cache.Put("k", Blob(1, {9}), /*now_unix=*/1000);
  EXPECT_TRUE(cache.Get("k", 1099).has_value());
  EXPECT_TRUE(cache.Get("k", 1100).has_value());  // exactly at expiry: valid
  EXPECT_FALSE(cache.Get("k", 1101).has_value());
}

TEST_F(DiskCacheTest, NegativeExpiryMeansNever) {
  DiskCache cache(dir_, /*expiry_seconds=*/-1);
  cache.Put("k", Blob(1, {9}), 0);
  EXPECT_TRUE(cache.Get("k", 1'000'000'000).has_value());
}

TEST_F(DiskCacheTest, OverwriteReplaces) {
  DiskCache cache(dir_, 3600);
  cache.Put("k", Blob(1, {1}), 10);
  cache.Put("k", Blob(2, {2, 2}), 20);
  auto got = cache.Get("k", 20);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 2u);
  EXPECT_EQ(got->data.size(), 2u);
}

TEST_F(DiskCacheTest, KeysWithSlashesAndCollisions) {
  DiskCache cache(dir_, 3600);
  // These sanitize to the same alnum skeleton; the hash suffix must keep
  // them distinct.
  cache.Put("model/a", Blob(1, {1}), 0);
  cache.Put("model.a", Blob(2, {2}), 0);
  EXPECT_EQ(cache.Get("model/a", 0)->version, 1u);
  EXPECT_EQ(cache.Get("model.a", 0)->version, 2u);
}

TEST_F(DiskCacheTest, ClearDropsEveryEntry) {
  DiskCache cache(dir_, 3600);
  cache.Put("a", Blob(1, {1}), 0);
  cache.Put("b", Blob(1, {1}), 0);
  EXPECT_TRUE(cache.Get("a", 0).has_value());
  EXPECT_TRUE(cache.Get("b", 0).has_value());
  cache.Clear();
  EXPECT_FALSE(cache.Get("a", 0).has_value());
  EXPECT_FALSE(cache.Get("b", 0).has_value());
}

TEST_F(DiskCacheTest, CorruptFileRejected) {
  DiskCache cache(dir_, 3600);
  cache.Put("k", Blob(1, {1, 2, 3, 4}), 0);
  // Stomp the file contents.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  EXPECT_FALSE(cache.Get("k", 0).has_value());
}

TEST_F(DiskCacheTest, EmptyPayload) {
  DiskCache cache(dir_, 3600);
  cache.Put("k", VersionedBlob{5, {}}, 0);
  auto got = cache.Get("k", 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 5u);
  EXPECT_TRUE(got->data.empty());
}

TEST_F(DiskCacheTest, SurvivesReopen) {
  {
    DiskCache cache(dir_, 3600);
    cache.Put("persist", Blob(7, {7}), 100);
  }
  DiskCache reopened(dir_, 3600);
  auto got = reopened.Get("persist", 100);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 7u);
}

}  // namespace
}  // namespace rc::store

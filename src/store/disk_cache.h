// Local-filesystem cache of models and feature data (paper Section 4.2):
// the client DLL persists its in-memory caches to disk and consults the disk
// copy only when (a) there is an in-memory miss and the store is unavailable
// or (b) the client restarts while the store is unavailable — and never when
// the disk entry has expired.
#ifndef RC_SRC_STORE_DISK_CACHE_H_
#define RC_SRC_STORE_DISK_CACHE_H_

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "src/store/kv_store.h"

namespace rc::store {

class DiskCache {
 public:
  // Entries older than `expiry_seconds` are ignored (and lazily removed).
  // The directory is created if needed. `metrics` receives the rc_disk_*
  // instruments (null = the process-global registry).
  DiskCache(std::filesystem::path dir, int64_t expiry_seconds,
            rc::obs::MetricsRegistry* metrics = nullptr);

  // Persists a blob under the (sanitized) key, stamped with `now_unix`
  // (defaults to wall-clock when < 0).
  void Put(const std::string& key, const VersionedBlob& blob, int64_t now_unix = -1);

  // Reads a blob back; nullopt if absent, expired relative to `now_unix`, or
  // corrupt — a bad magic, a frame shorter or longer than its length field
  // (torn write), or a payload CRC mismatch (bit rot) all reject the entry.
  std::optional<VersionedBlob> Get(const std::string& key, int64_t now_unix = -1) const;

  void Clear();

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path PathFor(const std::string& key) const;

  struct Instruments {
    rc::obs::Counter* writes;
    rc::obs::Counter* reads_hit;
    rc::obs::Counter* reads_miss;
    rc::obs::Counter* reads_expired;
    rc::obs::Counter* reads_corrupt;  // bad magic / torn frame / CRC mismatch
  };

  std::filesystem::path dir_;
  int64_t expiry_seconds_;
  Instruments m_{};
};

}  // namespace rc::store

#endif  // RC_SRC_STORE_DISK_CACHE_H_

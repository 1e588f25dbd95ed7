#include "src/store/disk_cache.h"

#include <chrono>
#include <cstring>
#include <fstream>

#include "src/common/crc32.h"
#include "src/common/faults.h"
#include "src/common/hashing.h"
#include "src/obs/trace_context.h"

namespace rc::store {

namespace {

constexpr uint64_t kMagic = 0x52435f4443414348ULL;  // "RC_DCACH"

// Frame layout: magic(8) stamp(8) version(8) crc(4) size(8) payload(size).
// The CRC covers the payload only; the fixed header is validated by the magic
// and by requiring the file length to match `size` exactly, so torn writes
// (short files) and appended garbage are both rejected.
constexpr size_t kHeaderBytes = 8 + 8 + 8 + 4 + 8;

int64_t NowUnix() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

template <typename T>
void AppendPod(std::vector<uint8_t>& buf, const T& v) {
  size_t off = buf.size();
  buf.resize(off + sizeof(T));
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
bool ReadPod(const std::vector<uint8_t>& buf, size_t& pos, T& v) {
  if (pos + sizeof(T) > buf.size()) return false;
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

DiskCache::DiskCache(std::filesystem::path dir, int64_t expiry_seconds,
                     rc::obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), expiry_seconds_(expiry_seconds) {
  std::filesystem::create_directories(dir_);
  rc::obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : rc::obs::MetricsRegistry::Global();
  m_.writes = &reg.GetCounter("rc_disk_writes", {}, "disk-cache writes attempted");
  m_.reads_hit = &reg.GetCounter("rc_disk_reads", {{"result", "hit"}}, "reads by outcome");
  m_.reads_miss = &reg.GetCounter("rc_disk_reads", {{"result", "miss"}});
  m_.reads_expired = &reg.GetCounter("rc_disk_reads", {{"result", "expired"}});
  m_.reads_corrupt = &reg.GetCounter("rc_disk_reads", {{"result", "corrupt"}});
}

std::filesystem::path DiskCache::PathFor(const std::string& key) const {
  // Sanitize: keep alphanumerics, replace the rest; suffix with a hash so
  // distinct keys cannot collide after sanitization.
  std::string name;
  name.reserve(key.size() + 20);
  for (char c : key) {
    name.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  name += "_" + std::to_string(Fnv1a(key));
  name += ".rccache";
  return dir_ / name;
}

void DiskCache::Put(const std::string& key, const VersionedBlob& blob, int64_t now_unix) {
  rc::obs::TraceSpan span("disk/write");
  m_.writes->Increment();
  if (now_unix < 0) now_unix = NowUnix();
  if (faults::InjectError("disk/write")) return;  // cache writes are best-effort
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + blob.data.size());
  AppendPod(frame, kMagic);
  AppendPod(frame, now_unix);
  AppendPod(frame, blob.version);
  AppendPod(frame, Crc32(blob.data));  // authoritative: recomputed at write time
  AppendPod(frame, static_cast<uint64_t>(blob.data.size()));
  frame.insert(frame.end(), blob.data.begin(), blob.data.end());
  // A torn or bit-flipped write mutates the frame after it was sealed, like a
  // crash mid-write on a filesystem without atomic rename.
  faults::InjectMutation("disk/write", frame);
  std::filesystem::path tmp = PathFor(key);
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // cache writes are best-effort
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, PathFor(key), ec);  // atomic replace
}

std::optional<VersionedBlob> DiskCache::Get(const std::string& key, int64_t now_unix) const {
  rc::obs::TraceSpan span("disk/read");
  if (now_unix < 0) now_unix = NowUnix();
  if (faults::InjectError("disk/read")) {
    m_.reads_miss->Increment();
    return std::nullopt;
  }
  std::ifstream in(PathFor(key), std::ios::binary);
  if (!in) {
    m_.reads_miss->Increment();
    return std::nullopt;
  }
  std::vector<uint8_t> frame((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  faults::InjectMutation("disk/read", frame);

  auto corrupt = [this]() -> std::optional<VersionedBlob> {
    m_.reads_corrupt->Increment();
    return std::nullopt;
  };
  size_t pos = 0;
  uint64_t magic = 0;
  int64_t stamp = 0;
  VersionedBlob blob;
  uint64_t size = 0;
  if (!ReadPod(frame, pos, magic) || magic != kMagic) return corrupt();
  if (!ReadPod(frame, pos, stamp)) return corrupt();
  if (!ReadPod(frame, pos, blob.version)) return corrupt();
  if (!ReadPod(frame, pos, blob.crc)) return corrupt();
  if (!ReadPod(frame, pos, size)) return corrupt();
  if (expiry_seconds_ >= 0 && now_unix - stamp > expiry_seconds_) {
    m_.reads_expired->Increment();
    return std::nullopt;  // expired: the paper's client ignores stale disk data
  }
  if (frame.size() - pos != size) return corrupt();  // torn or padded frame
  blob.data.assign(frame.begin() + static_cast<ptrdiff_t>(pos), frame.end());
  if (Crc32(blob.data) != blob.crc) return corrupt();  // bit rot
  m_.reads_hit->Increment();
  return blob;
}

void DiskCache::Clear() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".rccache") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace rc::store

// File-system abstraction (RocksDB-style Env). Production code uses the
// POSIX implementation; tests use fault-injection wrappers, and the
// benchmark harness uses a throttled wrapper that emulates FlashSSD
// latency so I/O cost is visible at CI-scale graph sizes.
#ifndef OPT_STORAGE_ENV_H_
#define OPT_STORAGE_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace opt {

/// Positioned reads; thread safe (concurrent Read calls allowed).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads exactly n bytes at `offset` into `dst` (short reads at EOF
  /// return IOError).
  virtual Status Read(uint64_t offset, size_t n, char* dst) const = 0;

  /// Vectored read: `dsts.size()` consecutive n-byte blocks starting at
  /// `offset`, block i into dsts[i], as one device command (a run of
  /// pages). The default issues one Read into an aligned staging buffer
  /// and copies the blocks out, so a decorator that overrides only Read
  /// still sees exactly one Read per call; the POSIX files override it
  /// with preadv straight into the destinations.
  virtual Status ReadV(uint64_t offset, size_t n,
                       std::span<char* const> dsts) const;
};

/// Sequential append-only writes.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(Slice data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

struct EnvIoStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_bytes{0};
  void Reset() {
    reads = 0;
    read_bytes = 0;
    writes = 0;
    write_bytes = 0;
  }
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  /// Process-wide POSIX Env singleton.
  static Env* Default();
};

/// Wraps an Env and injects a fixed latency per read command, emulating
/// device access cost; also counts I/O operations. `read_latency_micros`
/// is charged once per RandomAccessFile::Read or ReadV call, whatever its
/// size: an SSD serves a 4 KiB and a 128 KiB random read in about the
/// same time, so a run of pages read with one command costs one latency.
/// `stats().reads` counts commands; `read_bytes` is their volume.
class ThrottledEnv : public Env {
 public:
  ThrottledEnv(Env* base, uint32_t read_latency_micros,
               uint32_t write_latency_micros = 0);

  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;

  EnvIoStats& stats() { return stats_; }

 private:
  Env* base_;
  uint32_t read_latency_micros_;
  uint32_t write_latency_micros_;
  EnvIoStats stats_;
};

/// Opens files with O_DIRECT, bypassing the OS page cache — the
/// paper's experimental setup ("we made OPT, MGT, CC-Seq, and CC-DS use
/// direct I/O", §5.1). Reads must be 4096-aligned in offset, length,
/// and destination pointer (use AlignedBuffer / the BufferPool, whose
/// frames are page-aligned). Filesystems without O_DIRECT support
/// (tmpfs) make OpenRandomAccess return NotSupported.
class DirectIoEnv : public Env {
 public:
  explicit DirectIoEnv(Env* fallback);

  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;

 private:
  Env* fallback_;
};

}  // namespace opt

#endif  // OPT_STORAGE_ENV_H_

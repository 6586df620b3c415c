#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/aligned_buffer.h"

namespace opt {

Status RandomAccessFile::ReadV(uint64_t offset, size_t n,
                               std::span<char* const> dsts) const {
  if (dsts.size() == 1) return Read(offset, n, dsts[0]);
  // One staging buffer per thread, kept between calls: a fresh 128 KiB
  // allocation per run would cost an mmap, page faults and a munmap.
  thread_local AlignedBuffer staging;
  const size_t total = n * dsts.size();
  if (staging.size() < total) staging = AlignedBuffer(total);
  OPT_RETURN_IF_ERROR(Read(offset, total, staging.data()));
  for (size_t i = 0; i < dsts.size(); ++i) {
    std::memcpy(dsts[i], staging.data() + i * n, n);
  }
  return Status::OK();
}

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

/// preadv until every block is filled: `dsts.size()` n-byte blocks from
/// `offset`. A zero-byte return (EOF) is an IOError.
Status PreadvFully(int fd, const std::string& path, uint64_t offset,
                   size_t n, std::span<char* const> dsts) {
  constexpr size_t kBatch = 64;  // blocks per preadv call; below IOV_MAX
  iovec iov[kBatch];
  while (!dsts.empty() && n > 0) {
    const size_t count = std::min(dsts.size(), kBatch);
    for (size_t i = 0; i < count; ++i) iov[i] = {dsts[i], n};
    size_t first = 0;
    while (first < count) {
      const ssize_t r = ::preadv(fd, iov + first,
                                 static_cast<int>(count - first),
                                 static_cast<off_t>(offset));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("preadv " + path));
      }
      if (r == 0) {
        return Status::IOError("short read at offset " +
                               std::to_string(offset) + " in " + path);
      }
      offset += static_cast<uint64_t>(r);
      // Skip the blocks this call filled; resume inside a partial one.
      size_t left = static_cast<size_t>(r);
      while (left > 0) {
        iovec& v = iov[first];
        if (left >= v.iov_len) {
          left -= v.iov_len;
          ++first;
        } else {
          v.iov_base = static_cast<char*>(v.iov_base) + left;
          v.iov_len -= left;
          left = 0;
        }
      }
    }
    dsts = dsts.subspan(count);
  }
  return Status::OK();
}

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, char* dst) const override {
    char* const dsts[1] = {dst};
    return PreadvFully(fd_, path_, offset, n, dsts);
  }

  Status ReadV(uint64_t offset, size_t n,
               std::span<char* const> dsts) const override {
    return PreadvFully(fd_, path_, offset, n, dsts);
  }

 private:
  std::string path_;
  int fd_;
};

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(Slice data) override {
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t w = ::write(fd_, data.data() + done, data.size() - done);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write " + path_));
      }
      done += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fdatasync " + path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Status::IOError(ErrnoMessage("close " + path_));
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
    return std::unique_ptr<RandomAccessFile>(
        new PosixRandomAccessFile(path, fd));
  }

  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override {
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
    return std::unique_ptr<WritableFile>(new PosixWritableFile(path, fd));
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IOError(ErrnoMessage("stat " + path));
    }
    return static_cast<uint64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(ErrnoMessage("unlink " + path));
    }
    return Status::OK();
  }
};

class ThrottledRandomAccessFile : public RandomAccessFile {
 public:
  ThrottledRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                            uint32_t latency_micros, EnvIoStats* stats)
      : base_(std::move(base)),
        latency_micros_(latency_micros),
        stats_(stats) {}

  Status Read(uint64_t offset, size_t n, char* dst) const override {
    char* const dsts[1] = {dst};
    return ReadV(offset, n, dsts);
  }

  /// One command, one latency, however many blocks it carries.
  Status ReadV(uint64_t offset, size_t n,
               std::span<char* const> dsts) const override {
    if (latency_micros_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_micros_));
    }
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    stats_->read_bytes.fetch_add(n * dsts.size(), std::memory_order_relaxed);
    return base_->ReadV(offset, n, dsts);
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  uint32_t latency_micros_;
  EnvIoStats* stats_;
};

class CountingWritableFile : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base,
                       uint32_t latency_micros, EnvIoStats* stats)
      : base_(std::move(base)), latency_micros_(latency_micros),
        stats_(stats) {}

  Status Append(Slice data) override {
    if (latency_micros_ > 0) {
      // Latency is charged per 4 KiB written, so bulk appends pay in
      // proportion to their volume (like a real device would).
      const uint64_t units = (data.size() + 4095) / 4096;
      std::this_thread::sleep_for(
          std::chrono::microseconds(latency_micros_ * units));
    }
    stats_->writes.fetch_add(1, std::memory_order_relaxed);
    stats_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  uint32_t latency_micros_;
  EnvIoStats* stats_;
};

class DirectIoFile : public RandomAccessFile {
 public:
  DirectIoFile(std::string path, int fd, uint64_t file_size)
      : path_(std::move(path)), fd_(fd), file_size_(file_size) {}
  ~DirectIoFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, char* dst) const override {
    constexpr uint64_t kAlign = 4096;
    if (offset + n > file_size_) {
      return Status::IOError("read past end of " + path_);
    }
    const bool aligned = offset % kAlign == 0 && n % kAlign == 0 &&
                         reinterpret_cast<uintptr_t>(dst) % kAlign == 0;
    if (aligned) return ReadAligned(offset, n, dst);
    // Transparent handling of misaligned requests (metadata sidecars,
    // odd tails): read the covering aligned window into a scratch
    // buffer and copy out — the RocksDB direct-I/O idiom.
    const uint64_t window_start = offset / kAlign * kAlign;
    const uint64_t window_end =
        (offset + n + kAlign - 1) / kAlign * kAlign;
    const size_t window = static_cast<size_t>(window_end - window_start);
    void* raw = std::aligned_alloc(kAlign, window);
    if (raw == nullptr) {
      return Status::ResourceExhausted("aligned scratch allocation failed");
    }
    char* scratch = static_cast<char*>(raw);
    Status s = ReadAligned(window_start, window, scratch);
    if (s.ok()) {
      std::memcpy(dst, scratch + (offset - window_start), n);
    }
    std::free(raw);
    return s;
  }

  /// preadv straight into the destinations when every block is aligned
  /// (page-sized runs into pool frames); otherwise the staging default,
  /// whose single Read handles the misalignment.
  Status ReadV(uint64_t offset, size_t n,
               std::span<char* const> dsts) const override {
    constexpr uint64_t kAlign = 4096;
    bool aligned = offset % kAlign == 0 && n % kAlign == 0;
    for (char* dst : dsts) {
      aligned = aligned && reinterpret_cast<uintptr_t>(dst) % kAlign == 0;
    }
    if (!aligned) return RandomAccessFile::ReadV(offset, n, dsts);
    if (offset + n * dsts.size() > file_size_) {
      return Status::IOError("read past end of " + path_);
    }
    return PreadvFully(fd_, path_, offset, n, dsts);
  }

 private:
  Status ReadAligned(uint64_t offset, size_t n, char* dst) const {
    size_t done = 0;
    while (done < n) {
      const ssize_t r = ::pread(fd_, dst + done, n - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("direct pread " + path_));
      }
      if (r == 0) {
        // O_DIRECT windows may extend past EOF; zero-fill the tail so
        // callers reading exact logical sizes still succeed.
        std::memset(dst + done, 0, n - done);
        return Status::OK();
      }
      done += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  std::string path_;
  int fd_;
  uint64_t file_size_;
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

ThrottledEnv::ThrottledEnv(Env* base, uint32_t read_latency_micros,
                           uint32_t write_latency_micros)
    : base_(base), read_latency_micros_(read_latency_micros),
      write_latency_micros_(write_latency_micros) {}

Result<std::unique_ptr<RandomAccessFile>> ThrottledEnv::OpenRandomAccess(
    const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<RandomAccessFile>(new ThrottledRandomAccessFile(
      std::move(file), read_latency_micros_, &stats_));
}

Result<std::unique_ptr<WritableFile>> ThrottledEnv::OpenWritable(
    const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenWritable(path));
  return std::unique_ptr<WritableFile>(new CountingWritableFile(
      std::move(file), write_latency_micros_, &stats_));
}

Result<uint64_t> ThrottledEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool ThrottledEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status ThrottledEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

DirectIoEnv::DirectIoEnv(Env* fallback) : fallback_(fallback) {}

Result<std::unique_ptr<RandomAccessFile>> DirectIoEnv::OpenRandomAccess(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECT | O_CLOEXEC);
  if (fd < 0) {
    if (errno == EINVAL || errno == ENOTSUP) {
      return Status::NotSupported("filesystem rejects O_DIRECT for " +
                                  path);
    }
    return Status::IOError(ErrnoMessage("open(O_DIRECT) " + path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IOError(ErrnoMessage("fstat " + path));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<RandomAccessFile>(
      new DirectIoFile(path, fd, static_cast<uint64_t>(st.st_size)));
}

Result<std::unique_ptr<WritableFile>> DirectIoEnv::OpenWritable(
    const std::string& path) {
  return fallback_->OpenWritable(path);
}

Result<uint64_t> DirectIoEnv::FileSize(const std::string& path) {
  return fallback_->FileSize(path);
}

bool DirectIoEnv::FileExists(const std::string& path) {
  return fallback_->FileExists(path);
}

Status DirectIoEnv::DeleteFile(const std::string& path) {
  return fallback_->DeleteFile(path);
}

}  // namespace opt

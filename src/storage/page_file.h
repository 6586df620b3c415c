// A file of fixed-size pages with thread-safe positional reads.
#ifndef OPT_STORAGE_PAGE_FILE_H_
#define OPT_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "storage/env.h"
#include "util/status.h"

namespace opt {

class PageFile {
 public:
  static Result<std::unique_ptr<PageFile>> Open(Env* env,
                                                const std::string& path,
                                                uint32_t page_size);

  /// Reads page `pid` into `dst` (page_size bytes). Thread safe.
  Status ReadPage(uint32_t pid, char* dst) const;

  /// Reads pages [first_pid, first_pid + dsts.size()) with one vectored
  /// device read, page i into dsts[i]. Thread safe.
  Status ReadPages(uint32_t first_pid, std::span<char* const> dsts) const;

  uint32_t num_pages() const { return num_pages_; }
  uint32_t page_size() const { return page_size_; }
  const std::string& path() const { return path_; }

 private:
  PageFile(std::unique_ptr<RandomAccessFile> file, std::string path,
           uint32_t page_size, uint32_t num_pages)
      : file_(std::move(file)), path_(std::move(path)),
        page_size_(page_size), num_pages_(num_pages) {}

  std::unique_ptr<RandomAccessFile> file_;
  std::string path_;
  uint32_t page_size_;
  uint32_t num_pages_;
};

/// Appends finished page images sequentially.
class PageFileWriter {
 public:
  static Result<std::unique_ptr<PageFileWriter>> Create(
      Env* env, const std::string& path, uint32_t page_size);

  Status Append(const char* page);
  Status Finish();
  uint32_t pages_written() const { return pages_written_; }

 private:
  PageFileWriter(std::unique_ptr<WritableFile> file, uint32_t page_size)
      : file_(std::move(file)), page_size_(page_size) {}

  std::unique_ptr<WritableFile> file_;
  uint32_t page_size_;
  uint32_t pages_written_ = 0;
};

}  // namespace opt

#endif  // OPT_STORAGE_PAGE_FILE_H_

#include "storage/page_file.h"

#include "storage/page.h"

namespace opt {

Result<std::unique_ptr<PageFile>> PageFile::Open(Env* env,
                                                 const std::string& path,
                                                 uint32_t page_size) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("page size too small");
  }
  OPT_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
  if (size % page_size != 0) {
    return Status::Corruption("file size " + std::to_string(size) +
                              " is not a multiple of page size in " + path);
  }
  OPT_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  return std::unique_ptr<PageFile>(
      new PageFile(std::move(file), path, page_size,
                   static_cast<uint32_t>(size / page_size)));
}

Status PageFile::ReadPage(uint32_t pid, char* dst) const {
  if (pid >= num_pages_) {
    return Status::OutOfRange("page " + std::to_string(pid) +
                              " beyond end of " + path_);
  }
  return file_->Read(static_cast<uint64_t>(pid) * page_size_, page_size_,
                     dst);
}

Status PageFile::ReadPages(uint32_t first_pid,
                           std::span<char* const> dsts) const {
  if (static_cast<uint64_t>(first_pid) + dsts.size() > num_pages_) {
    return Status::OutOfRange(
        "pages " + std::to_string(first_pid) + ".." +
        std::to_string(static_cast<uint64_t>(first_pid) + dsts.size() - 1) +
        " beyond end of " + path_);
  }
  return file_->ReadV(static_cast<uint64_t>(first_pid) * page_size_,
                      page_size_, dsts);
}

Result<std::unique_ptr<PageFileWriter>> PageFileWriter::Create(
    Env* env, const std::string& path, uint32_t page_size) {
  OPT_ASSIGN_OR_RETURN(auto file, env->OpenWritable(path));
  return std::unique_ptr<PageFileWriter>(
      new PageFileWriter(std::move(file), page_size));
}

Status PageFileWriter::Append(const char* page) {
  OPT_RETURN_IF_ERROR(file_->Append(Slice(page, page_size_)));
  ++pages_written_;
  return Status::OK();
}

Status PageFileWriter::Finish() {
  OPT_RETURN_IF_ERROR(file_->Sync());
  return file_->Close();
}

}  // namespace opt

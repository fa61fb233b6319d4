#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace beas {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Raw write(2) over an fd: bytes are in the kernel page cache (and
/// survive a process kill) the moment Append returns; Sync is fsync(2).
/// No userspace buffering, so a crash can tear at most the last write.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile() = default;
  PosixWritableFile(const PosixWritableFile&) = delete;
  PosixWritableFile& operator=(const PosixWritableFile&) = delete;
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Open(const std::string& path) {
    path_ = path;
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ < 0) return Errno("open", path);
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) return Errno("lseek", path);
    offset_ = static_cast<uint64_t>(end);
    return Status::OK();
  }

  Status Append(const void* data, size_t len) override {
    const char* p = static_cast<const char*>(data);
    size_t remaining = len;
    while (remaining > 0) {
      ssize_t n = ::write(fd_, p, remaining);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      p += n;
      remaining -= static_cast<size_t>(n);
    }
    offset_ += len;
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Errno("fsync", path_);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Errno("ftruncate", path_);
    }
    if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
      return Errno("lseek", path_);
    }
    offset_ = size;
    return Status::OK();
  }

  uint64_t size() const override { return offset_; }

 private:
  int fd_ = -1;
  uint64_t offset_ = 0;
  std::string path_;
};

/// A read-only mmap of the whole file: no read loop, no copy, and a file
/// larger than RAM pages in lazily. An empty file holds no mapping.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile() = default;
  PosixRandomAccessFile(const PosixRandomAccessFile&) = delete;
  PosixRandomAccessFile& operator=(const PosixRandomAccessFile&) = delete;
  ~PosixRandomAccessFile() override {
    if (data_ != nullptr) ::munmap(data_, size_);
  }

  Status Open(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open", path);
    struct stat st;
    Status s = Status::OK();
    if (::fstat(fd, &st) != 0) {
      s = Errno("fstat", path);
    } else if (st.st_size > 0) {
      void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
      if (p == MAP_FAILED) {
        s = Errno("mmap", path);
      } else {
        data_ = static_cast<char*>(p);
        size_ = static_cast<size_t>(st.st_size);
      }
    }
    // The mapping keeps the pages alive; the fd is not needed afterwards.
    ::close(fd);
    return s;
  }

  const char* data() const override { return data_; }
  size_t size() const override { return size_; }

 private:
  char* data_ = nullptr;
  size_t size_ = 0;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto file = std::make_unique<PosixWritableFile>();
    BEAS_RETURN_NOT_OK(file->Open(path));
    return std::unique_ptr<WritableFile>(std::move(file));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto file = std::make_unique<PosixRandomAccessFile>();
    BEAS_RETURN_NOT_OK(file->Open(path));
    return std::unique_ptr<RandomAccessFile>(std::move(file));
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  bool IsDirectory(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return Errno("opendir", path);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(std::move(name));
    }
    ::closedir(dir);
    return names;
  }

  Status CreateDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
      return Status::OK();
    }
    return Errno("mkdir", path);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Errno("rename", from);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    return Status::OK();
  }

  Status RemoveDir(const std::string& path) override {
    if (::rmdir(path.c_str()) != 0) return Errno("rmdir", path);
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("open dir", path);
    Status s = Status::OK();
    if (::fsync(fd) != 0) s = Errno("fsync dir", path);
    ::close(fd);
    return s;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

Status Env::SyncParentDir(const std::string& path) {
  size_t end = path.find_last_not_of('/');
  if (end == std::string::npos) return SyncDir("/");
  size_t slash = path.find_last_of('/', end);
  if (slash == std::string::npos) return SyncDir(".");
  return SyncDir(slash == 0 ? "/" : path.substr(0, slash));
}

Status Env::WriteFileAtomic(const std::string& path, const std::string& data) {
  std::string tmp = path + ".tmp";
  {
    BEAS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                          NewWritableFile(tmp));
    BEAS_RETURN_NOT_OK(f->Truncate(0));
    BEAS_RETURN_NOT_OK(f->Append(data.data(), data.size()));
    BEAS_RETURN_NOT_OK(f->Sync());
  }
  BEAS_RETURN_NOT_OK(RenameFile(tmp, path));
  return SyncParentDir(path);
}

void Env::RemoveAll(const std::string& path) {
  if (IsDirectory(path)) {
    Result<std::vector<std::string>> names = ListDir(path);
    if (names.ok()) {
      for (const std::string& name : *names) RemoveAll(path + "/" + name);
    }
    (void)RemoveDir(path);
  } else if (FileExists(path)) {
    (void)RemoveFile(path);
  }
}

}  // namespace beas

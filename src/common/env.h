#ifndef BEAS_COMMON_ENV_H_
#define BEAS_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace beas {

/// \brief An append-only file handle (the WAL/segment write surface).
///
/// Append puts bytes where a process kill cannot lose them (kernel page
/// cache for the posix implementation), Sync marks the machine-crash
/// durability boundary, and Truncate repositions the append offset (WAL
/// reset / torn-tail repair).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `len` bytes; loops over partial writes.
  virtual Status Append(const void* data, size_t len) = 0;

  /// Everything appended so far is durable when this returns OK.
  virtual Status Sync() = 0;

  /// Truncates to `size` bytes and repositions the append offset there.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current file size (== append offset).
  virtual uint64_t size() const = 0;
};

/// \brief A whole-file read view (the WAL/segment read surface).
///
/// The durability read paths validate CRC'd framing against the view and
/// parse payloads in place, so the view is the full file contents — the
/// posix implementation backs it with a read-only mmap (no copy, lazy
/// paging), a fault-injecting one with an in-memory snapshot.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  virtual const char* data() const = 0;
  virtual size_t size() const = 0;
};

/// \brief The I/O environment seam (RocksDB-style).
///
/// Every byte the durability subsystem reads or writes — WAL records,
/// checkpoint segments, manifests, directory fsyncs — flows through an
/// Env, so a test environment can model real disk behavior (torn sector
/// writes at power cut, dropped unsynced data, bit rot, short reads)
/// without touching a device. Env::Default() is the posix filesystem and
/// is used whenever DurabilityOptions does not inject one.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens (creating if needed) `path` for appending; positions at the
  /// current end of file.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Opens `path` for reading as a whole-file view. Errors if absent.
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  /// True if `path` exists (any file type).
  virtual bool FileExists(const std::string& path) = 0;

  virtual bool IsDirectory(const std::string& path) = 0;

  /// Names of entries in `path` (not "."/".."), unsorted.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  /// Creates `path` (one level); OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Atomically renames `from` over `to` (replacing it if present). The
  /// rename is durable only after SyncDir on the containing directory.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  /// Removes an (empty) directory.
  virtual Status RemoveDir(const std::string& path) = 0;

  /// Makes creates/renames/removes inside `path` durable.
  virtual Status SyncDir(const std::string& path) = 0;

  /// Faults this environment has injected so far (0 for real
  /// environments; exported as the `env_injected_faults` gauge).
  virtual uint64_t injected_faults() const { return 0; }

  /// The process-wide posix environment.
  static Env* Default();

  /// \name Helpers composed from the primitives (work on any Env).
  /// @{

  /// SyncDir on the directory containing `path` (trailing slashes
  /// ignored; "." when `path` has no directory component).
  Status SyncParentDir(const std::string& path);

  /// Writes `data` to `path` atomically: write `path`.tmp, sync, rename
  /// over `path`, sync the parent directory. Readers see old or new
  /// content, never a torn mix.
  Status WriteFileAtomic(const std::string& path, const std::string& data);

  /// Best-effort recursive removal of `path`.
  void RemoveAll(const std::string& path);
  /// @}
};

}  // namespace beas

#endif  // BEAS_COMMON_ENV_H_

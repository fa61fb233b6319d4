#ifndef BEAS_TESTS_SUPPORT_TEST_ENV_H_
#define BEAS_TESTS_SUPPORT_TEST_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"

namespace beas {

/// \brief An in-memory Env that models what real storage does to unsynced
/// bytes at power cut — the substrate of the crash-consistency harness.
///
/// ## Filesystem model
///
/// Every file holds two byte strings: `durable` (what the device is
/// guaranteed to return after a power cut) and `current` (what a live
/// reader sees). Append/Truncate mutate `current` only; Sync() promotes
/// `current` to `durable`. Directory entries are durable only after
/// SyncDir on the containing directory — a created (or renamed-in) file
/// whose entry was never synced can vanish wholesale at the cut, and an
/// unsynced rename can revert to the replaced content, exactly the
/// windows the WAL-init / atomic-manifest protocols must close.
///
/// ## Power-cut semantics
///
/// ScheduleCutAfterBytes(n) arms a cut: the Append call that crosses `n`
/// cumulative appended bytes (across all files) applies its bytes only up
/// to the threshold, latches a *crash image*, then continues normally —
/// the live environment keeps serving, so the workload driver can finish
/// its script and later "reboot" by calling InstallCrashImage(), which
/// replaces the live state with the image.
///
/// The image is computed per file at 512-byte sector granularity: the
/// unsynced suffix/diff is split into sectors, and the TearPolicy decides
/// which sectors reached the platter (kRandom keeps each independently —
/// modeling reordered writeback — so the tail can be torn mid-record;
/// kDropAll keeps none; kKeepAll keeps all). Sectors not kept read back
/// as the old durable bytes where those existed and as garbage beyond
/// them. The file size lands on either the durable or the in-flight
/// length (size metadata races data writeback). Acked (synced) bytes are
/// never altered.
///
/// ## Call faults
///
/// ArmFault() picks one I/O call — the N-th (or every) call of one op on
/// paths containing a substring — and makes it fail (a plain IoError, or
/// one with strerror(ENOSPC)'s text, the disk-full shape), take effect
/// and then report failure (for Sync: the bytes are durable but the
/// caller sees an error), or cut: CutNow(TearPolicy::kKeepAll) right
/// before or right after the call. kKeepAll keeps every live file and
/// directory entry, so such a cut is a process kill at that call.
///
/// ## Deterministic corruption
///
/// FlipBit() flips one stored bit (durable and current — modeling cold
/// bit rot under a valid CRC frame) and ArmShortRead() makes the next
/// whole-file read view of a path come up short. These, the call faults
/// and the sectors and entries a cut loses all count into
/// injected_faults(), exported as the `env_injected_faults` gauge.
///
/// All decisions draw from an Rng seeded at construction, so every crash
/// image is reproducible from (seed, workload, cut threshold).
class FaultInjectingEnv : public Env {
 public:
  static constexpr uint64_t kSectorBytes = 512;

  enum class TearPolicy {
    kRandom,   ///< each unsynced sector independently survives or not
    kDropAll,  ///< no unsynced sector survives (clean revert to durable)
    kKeepAll,  ///< every unsynced byte written so far survives
  };

  /// The I/O calls ArmFault() can target.
  enum class FaultOp {
    kAppend,
    kSync,
    kTruncate,
    kNewWritableFile,
    kRenameFile,  ///< matches on either the source or the target path
    kSyncDir,
  };

  /// What an armed fault does to the call it hits.
  enum class Fault {
    kFail,            ///< no effect; returns IoError
    kFailNoSpace,     ///< no effect; IoError "No space left on device"
    kFailAfterEffect, ///< takes effect, then returns IoError
    kCutBefore,       ///< CutNow(kKeepAll), then the call runs
    kCutAfter,        ///< the call runs, then CutNow(kKeepAll)
  };

  /// ArmFault's `nth` for a fault that hits every matching call.
  static constexpr uint64_t kEveryCall = 0;

  explicit FaultInjectingEnv(uint64_t seed) : rng_(seed) {}

  /// \name Env interface.
  /// @{
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  bool FileExists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDir(const std::string& path) override;
  Status SyncDir(const std::string& path) override;
  uint64_t injected_faults() const override {
    return injected_faults_.load(std::memory_order_relaxed);
  }
  /// @}

  /// \name Power cut.
  /// @{

  /// Arms a power cut at `bytes` more appended bytes (cumulative over all
  /// files). Replaces any previously armed, untriggered cut.
  void ScheduleCutAfterBytes(uint64_t bytes,
                             TearPolicy policy = TearPolicy::kRandom);

  bool CutTriggered() const;

  /// Cumulative bytes appended through this env (all files, lifetime).
  uint64_t bytes_appended() const;

  /// Latches a crash image right now (as if the machine died between I/O
  /// calls) using `policy` for any unsynced state.
  void CutNow(TearPolicy policy = TearPolicy::kRandom);

  /// Replaces the live filesystem with the latched crash image ("reboot
  /// after the power cut"). Requires a triggered cut (or prior CutNow).
  /// Open WritableFile handles from before the install must not be used
  /// afterwards. Clears the armed/triggered cut state, the armed short
  /// reads and the armed call faults.
  void InstallCrashImage();
  /// @}

  /// \name Call faults.
  /// @{

  /// Arms `fault` on the `nth` (1-based, counted from now) call of `op`
  /// on a path containing `path_part`, or on every such call when `nth`
  /// is kEveryCall. Several faults may be armed at once; a call they all
  /// match counts for each, and the first armed one that fires decides.
  void ArmFault(FaultOp op, std::string path_part, Fault fault,
                uint64_t nth = 1);

  /// Disarms every call fault (InstallCrashImage does too).
  void ClearFaults();
  /// @}

  /// \name Deterministic corruption.
  /// @{

  /// Flips bit `bit` (0-7) of byte `offset` in `path`, in both the live
  /// and the durable image. Errors if the file is absent or short.
  Status FlipBit(const std::string& path, uint64_t offset, int bit);

  /// The next NewRandomAccessFile(path) returns a view truncated by
  /// 1..kSectorBytes bytes (never below zero).
  void ArmShortRead(const std::string& path);
  /// @}

 private:
  struct FileState {
    std::string durable;
    std::string current;
    bool entry_durable = false;  ///< containing dir synced since create
    /// Set while a rename into this name awaits the directory sync: the
    /// name the bytes lived under before, and the durable content of the
    /// file this rename displaced (empty-flagged when none).
    std::string renamed_from;
    bool displaced_valid = false;
    std::string displaced;
  };

  struct ArmedFault {
    FaultOp op;
    std::string path_part;
    Fault fault;
    uint64_t nth;
    uint64_t calls = 0;
  };

  struct Image {
    std::map<std::string, std::string> files;
    std::set<std::string> dirs;
  };

  class MemWritableFile;
  class MemRandomAccessFile;

  static std::string Normalize(const std::string& path);
  static std::string Parent(const std::string& path);

  /// Runs `call` (an op body, under mutex_) through the armed faults.
  template <typename Call>
  auto WithFaultsLocked(FaultOp op, const std::string& path,
                        const std::string& other_path, Call call)
      -> decltype(call());
  std::optional<Fault> NextFaultLocked(FaultOp op, const std::string& path,
                                       const std::string& other_path);
  void CutLocked(TearPolicy policy);
  Status RenameLocked(const std::string& from, const std::string& to);
  Status SyncDirLocked(const std::string& path);

  void AppendLocked(const std::string& path, const char* data, size_t len);
  void LatchImageLocked(TearPolicy policy);
  std::string CrashContentLocked(const FileState& f, TearPolicy policy);

  mutable std::mutex mutex_;
  Rng rng_;
  std::map<std::string, FileState> files_;
  /// Live directories, with their own entry-durability flag.
  std::map<std::string, bool> dirs_;
  std::set<std::string> short_read_armed_;
  std::vector<ArmedFault> armed_faults_;

  uint64_t appended_total_ = 0;
  bool cut_armed_ = false;
  bool cut_triggered_ = false;
  uint64_t cut_at_bytes_ = 0;
  TearPolicy cut_policy_ = TearPolicy::kRandom;
  Image image_;
  bool image_valid_ = false;

  std::atomic<uint64_t> injected_faults_{0};
};

}  // namespace beas

#endif  // BEAS_TESTS_SUPPORT_TEST_ENV_H_

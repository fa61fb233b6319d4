#include "support/test_env.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace beas {

namespace {
constexpr uint64_t kSector = FaultInjectingEnv::kSectorBytes;

const char* FaultOpName(FaultInjectingEnv::FaultOp op) {
  switch (op) {
    case FaultInjectingEnv::FaultOp::kAppend: return "append";
    case FaultInjectingEnv::FaultOp::kSync: return "fsync";
    case FaultInjectingEnv::FaultOp::kTruncate: return "ftruncate";
    case FaultInjectingEnv::FaultOp::kNewWritableFile: return "open";
    case FaultInjectingEnv::FaultOp::kRenameFile: return "rename";
    case FaultInjectingEnv::FaultOp::kSyncDir: return "fsync dir";
  }
  return "io";
}
}  // namespace

// ---------------------------------------------------------------------------
// Call faults.
// ---------------------------------------------------------------------------

template <typename Call>
auto FaultInjectingEnv::WithFaultsLocked(FaultOp op, const std::string& path,
                                         const std::string& other_path,
                                         Call call) -> decltype(call()) {
  std::optional<Fault> fault = NextFaultLocked(op, path, other_path);
  if (!fault.has_value()) return call();
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  const std::string what =
      std::string("injected ") + FaultOpName(op) + " failure: " + path;
  switch (*fault) {
    case Fault::kFail:
      return Status::IoError(what);
    case Fault::kFailNoSpace:
      return Status::IoError(what + ": " + std::strerror(ENOSPC));
    case Fault::kFailAfterEffect: {
      auto result = call();
      if (!result.ok()) return result;
      return Status::IoError(what);
    }
    case Fault::kCutBefore:
      CutLocked(TearPolicy::kKeepAll);
      return call();
    case Fault::kCutAfter: {
      auto result = call();
      CutLocked(TearPolicy::kKeepAll);
      return result;
    }
  }
  return call();
}

std::optional<FaultInjectingEnv::Fault> FaultInjectingEnv::NextFaultLocked(
    FaultOp op, const std::string& path, const std::string& other_path) {
  std::optional<Fault> fired;
  for (ArmedFault& armed : armed_faults_) {
    if (armed.op != op) continue;
    if (path.find(armed.path_part) == std::string::npos &&
        other_path.find(armed.path_part) == std::string::npos) {
      continue;
    }
    ++armed.calls;
    if (!fired.has_value() &&
        (armed.nth == kEveryCall || armed.calls == armed.nth)) {
      fired = armed.fault;
    }
  }
  return fired;
}

void FaultInjectingEnv::ArmFault(FaultOp op, std::string path_part,
                                 Fault fault, uint64_t nth) {
  std::lock_guard<std::mutex> lk(mutex_);
  armed_faults_.push_back({op, std::move(path_part), fault, nth});
}

void FaultInjectingEnv::ClearFaults() {
  std::lock_guard<std::mutex> lk(mutex_);
  armed_faults_.clear();
}

// ---------------------------------------------------------------------------
// File handles.
// ---------------------------------------------------------------------------

class FaultInjectingEnv::MemWritableFile : public WritableFile {
 public:
  MemWritableFile(FaultInjectingEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  Status Append(const void* data, size_t len) override {
    std::lock_guard<std::mutex> lk(env_->mutex_);
    return env_->WithFaultsLocked(FaultOp::kAppend, path_, "", [&] {
      env_->AppendLocked(path_, static_cast<const char*>(data), len);
      return Status::OK();
    });
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lk(env_->mutex_);
    return env_->WithFaultsLocked(FaultOp::kSync, path_, "", [&] {
      auto it = env_->files_.find(path_);
      if (it == env_->files_.end()) {
        return Status::IoError("fsync on removed file: " + path_);
      }
      it->second.durable = it->second.current;
      return Status::OK();
    });
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> lk(env_->mutex_);
    return env_->WithFaultsLocked(FaultOp::kTruncate, path_, "", [&] {
      auto it = env_->files_.find(path_);
      if (it == env_->files_.end()) {
        return Status::IoError("ftruncate on removed file: " + path_);
      }
      it->second.current.resize(size, '\0');
      return Status::OK();
    });
  }

  uint64_t size() const override {
    std::lock_guard<std::mutex> lk(env_->mutex_);
    auto it = env_->files_.find(path_);
    return it == env_->files_.end() ? 0 : it->second.current.size();
  }

 private:
  FaultInjectingEnv* env_;
  std::string path_;
};

class FaultInjectingEnv::MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::string content)
      : content_(std::move(content)) {}
  const char* data() const override { return content_.data(); }
  size_t size() const override { return content_.size(); }

 private:
  std::string content_;
};

// ---------------------------------------------------------------------------
// Path helpers.
// ---------------------------------------------------------------------------

std::string FaultInjectingEnv::Normalize(const std::string& path) {
  size_t end = path.find_last_not_of('/');
  if (end == std::string::npos) return "/";
  return path.substr(0, end + 1);
}

std::string FaultInjectingEnv::Parent(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// Env interface.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  return WithFaultsLocked(
      FaultOp::kNewWritableFile, p, "",
      [&]() -> Result<std::unique_ptr<WritableFile>> {
        files_[p];  // creates with entry_durable = false when absent
        return std::unique_ptr<WritableFile>(new MemWritableFile(this, p));
      });
}

Result<std::unique_ptr<RandomAccessFile>> FaultInjectingEnv::NewRandomAccessFile(
    const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = files_.find(p);
  if (it == files_.end()) return Status::IoError("open: no such file: " + p);
  std::string content = it->second.current;
  if (short_read_armed_.erase(p) > 0) {
    uint64_t cut =
        std::min<uint64_t>(content.size(),
                           static_cast<uint64_t>(rng_.Uniform(1, kSector)));
    content.resize(content.size() - cut);
    injected_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::unique_ptr<RandomAccessFile>(
      new MemRandomAccessFile(std::move(content)));
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  return files_.count(p) > 0 || dirs_.count(p) > 0;
}

bool FaultInjectingEnv::IsDirectory(const std::string& path) {
  std::lock_guard<std::mutex> lk(mutex_);
  return dirs_.count(Normalize(path)) > 0;
}

Result<std::vector<std::string>> FaultInjectingEnv::ListDir(
    const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  if (dirs_.count(p) == 0) return Status::IoError("opendir: not a dir: " + p);
  std::vector<std::string> names;
  const std::string prefix = p + "/";
  auto collect = [&](const std::string& entry) {
    if (entry.size() <= prefix.size() || entry.compare(0, prefix.size(), prefix))
      return;
    std::string rest = entry.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(std::move(rest));
  };
  for (const auto& f : files_) collect(f.first);
  for (const auto& d : dirs_) collect(d.first);
  return names;
}

Status FaultInjectingEnv::CreateDir(const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  dirs_.emplace(p, false);
  return Status::OK();
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  std::string f = Normalize(from), t = Normalize(to);
  std::lock_guard<std::mutex> lk(mutex_);
  return WithFaultsLocked(FaultOp::kRenameFile, f, t,
                          [&] { return RenameLocked(f, t); });
}

Status FaultInjectingEnv::RenameLocked(const std::string& f,
                                       const std::string& t) {
  auto it = files_.find(f);
  if (it == files_.end()) return Status::IoError("rename: no such file: " + f);
  FileState moved = std::move(it->second);
  files_.erase(it);
  FileState next;
  next.durable = std::move(moved.durable);
  next.current = std::move(moved.current);
  next.entry_durable = false;
  // Crash alternatives until the directory sync lands: the bytes under
  // the old name (if that entry was durable), or the displaced target.
  if (moved.entry_durable) next.renamed_from = f;
  auto old = files_.find(t);
  if (old != files_.end() && old->second.entry_durable) {
    next.displaced_valid = true;
    next.displaced = old->second.durable;
  }
  files_[t] = std::move(next);
  return Status::OK();
}

Status FaultInjectingEnv::RemoveFile(const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  files_.erase(p);
  return Status::OK();
}

Status FaultInjectingEnv::RemoveDir(const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  dirs_.erase(p);
  return Status::OK();
}

Status FaultInjectingEnv::SyncDir(const std::string& path) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  return WithFaultsLocked(FaultOp::kSyncDir, p, "",
                          [&] { return SyncDirLocked(p); });
}

Status FaultInjectingEnv::SyncDirLocked(const std::string& p) {
  for (auto& f : files_) {
    if (Parent(f.first) != p) continue;
    f.second.entry_durable = true;
    f.second.renamed_from.clear();
    f.second.displaced_valid = false;
    f.second.displaced.clear();
  }
  for (auto& d : dirs_) {
    if (Parent(d.first) == p) d.second = true;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Power cut.
// ---------------------------------------------------------------------------

void FaultInjectingEnv::ScheduleCutAfterBytes(uint64_t bytes,
                                              TearPolicy policy) {
  std::lock_guard<std::mutex> lk(mutex_);
  cut_armed_ = true;
  cut_triggered_ = false;
  cut_at_bytes_ = appended_total_ + bytes;
  cut_policy_ = policy;
}

bool FaultInjectingEnv::CutTriggered() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return cut_triggered_;
}

uint64_t FaultInjectingEnv::bytes_appended() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return appended_total_;
}

void FaultInjectingEnv::CutNow(TearPolicy policy) {
  std::lock_guard<std::mutex> lk(mutex_);
  CutLocked(policy);
}

void FaultInjectingEnv::CutLocked(TearPolicy policy) {
  cut_triggered_ = true;
  cut_armed_ = false;
  LatchImageLocked(policy);
}

void FaultInjectingEnv::AppendLocked(const std::string& path, const char* data,
                                     size_t len) {
  FileState& f = files_[path];
  size_t pre = len;
  if (cut_armed_ && !cut_triggered_ && appended_total_ + len >= cut_at_bytes_) {
    pre = cut_at_bytes_ > appended_total_
              ? static_cast<size_t>(cut_at_bytes_ - appended_total_)
              : 0;
  }
  f.current.append(data, pre);
  appended_total_ += pre;
  if (pre < len || (cut_armed_ && !cut_triggered_ &&
                    appended_total_ == cut_at_bytes_)) {
    cut_triggered_ = true;
    cut_armed_ = false;
    LatchImageLocked(cut_policy_);
    f.current.append(data + pre, len - pre);
    appended_total_ += len - pre;
  }
}

std::string FaultInjectingEnv::CrashContentLocked(const FileState& f,
                                                  TearPolicy policy) {
  const std::string& dur = f.durable;
  const std::string& cur = f.current;
  if (policy == TearPolicy::kKeepAll) return cur;
  if (policy == TearPolicy::kDropAll) return dur;

  // Sector model: unsynced sectors independently reach the platter or
  // not; the size metadata races the data writeback. Synced bytes are
  // immutable.
  const size_t max_len = std::max(dur.size(), cur.size());
  std::string img(max_len, '\0');
  std::memcpy(&img[0], dur.data(), dur.size());
  for (size_t i = dur.size(); i < max_len; ++i) {
    img[i] = static_cast<char>(rng_.Uniform(0, 255));  // stale platter bytes
  }
  const size_t nsec = (max_len + kSector - 1) / kSector;
  for (size_t s = 0; s < nsec; ++s) {
    const size_t lo = s * kSector;
    const size_t hi = std::min(max_len, lo + kSector);
    const size_t cur_hi = std::min(cur.size(), hi);
    const size_t dur_hi = std::min(dur.size(), hi);
    bool dirty = cur_hi != dur_hi;
    if (!dirty && lo < cur_hi) {
      dirty = std::memcmp(cur.data() + lo, dur.data() + lo, cur_hi - lo) != 0;
    }
    if (!dirty) continue;
    if (rng_.Chance(0.5)) {
      if (lo < cur_hi) std::memcpy(&img[lo], cur.data() + lo, cur_hi - lo);
    } else {
      injected_faults_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const size_t final_size = rng_.Chance(0.5) ? cur.size() : dur.size();
  img.resize(final_size, '\0');
  return img;
}

void FaultInjectingEnv::LatchImageLocked(TearPolicy policy) {
  image_.files.clear();
  image_.dirs.clear();

  // Directories first: a dir whose entry was never synced can vanish, and
  // takes everything under it along.
  for (const auto& d : dirs_) {
    bool keep = d.second || policy == TearPolicy::kKeepAll;
    if (!keep && policy == TearPolicy::kRandom) keep = rng_.Chance(0.5);
    if (!keep) {
      injected_faults_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Prune under a dropped ancestor (map order visits parents first).
    std::string parent = Parent(d.first);
    if (dirs_.count(parent) > 0 && image_.dirs.count(parent) == 0) continue;
    image_.dirs.insert(d.first);
  }

  auto ancestors_alive = [&](const std::string& path) {
    for (std::string a = Parent(path); !a.empty() && a != "/"; a = Parent(a)) {
      if (dirs_.count(a) > 0 && image_.dirs.count(a) == 0) return false;
    }
    return true;
  };

  for (const auto& entry : files_) {
    const std::string& path = entry.first;
    const FileState& f = entry.second;
    if (!ancestors_alive(path)) continue;
    bool entry_ok = f.entry_durable || policy == TearPolicy::kKeepAll;
    if (!entry_ok && policy == TearPolicy::kRandom) entry_ok = rng_.Chance(0.5);
    if (entry_ok) {
      image_.files[path] = CrashContentLocked(f, policy);
      continue;
    }
    // The unsynced create/rename never made it: revert to the crash
    // alternatives (old name, displaced target), or lose the file.
    injected_faults_.fetch_add(1, std::memory_order_relaxed);
    if (!f.renamed_from.empty() && ancestors_alive(f.renamed_from)) {
      image_.files[f.renamed_from] = f.durable;
    }
    if (f.displaced_valid) image_.files[path] = f.displaced;
  }
  image_valid_ = true;
}

void FaultInjectingEnv::InstallCrashImage() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!image_valid_) LatchImageLocked(TearPolicy::kDropAll);
  files_.clear();
  dirs_.clear();
  for (const std::string& d : image_.dirs) dirs_[d] = true;
  for (auto& f : image_.files) {
    FileState state;
    state.durable = f.second;
    state.current = std::move(f.second);
    state.entry_durable = true;
    files_[f.first] = std::move(state);
  }
  image_.files.clear();
  image_.dirs.clear();
  image_valid_ = false;
  cut_armed_ = false;
  cut_triggered_ = false;
  short_read_armed_.clear();
  armed_faults_.clear();
}

// ---------------------------------------------------------------------------
// Deterministic corruption.
// ---------------------------------------------------------------------------

Status FaultInjectingEnv::FlipBit(const std::string& path, uint64_t offset,
                                  int bit) {
  std::string p = Normalize(path);
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = files_.find(p);
  if (it == files_.end()) return Status::IoError("flip: no such file: " + p);
  FileState& f = it->second;
  if (offset >= f.current.size()) {
    return Status::InvalidArgument("flip: offset past end of " + p);
  }
  f.current[offset] ^= static_cast<char>(1u << (bit & 7));
  if (offset < f.durable.size()) {
    f.durable[offset] ^= static_cast<char>(1u << (bit & 7));
  }
  injected_faults_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void FaultInjectingEnv::ArmShortRead(const std::string& path) {
  std::lock_guard<std::mutex> lk(mutex_);
  short_read_armed_.insert(Normalize(path));
}

}  // namespace beas

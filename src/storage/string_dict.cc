#include "storage/string_dict.h"

namespace beas {

uint32_t StringDict::Intern(const std::string& s) {
  if ((strings_.size() + 1) * 2 > slots_.size()) Grow();
  uint64_t h = HashString(s);
  size_t slot = static_cast<size_t>(h) & mask_;
  for (;;) {
    uint32_t code = slots_[slot];
    if (code == kNullCode) {
      code = static_cast<uint32_t>(strings_.size());
      slots_[slot] = code;
      strings_.push_back(s);
      hashes_.push_back(h);
      string_bytes_ += sizeof(std::string) + strings_.back().capacity();
      return code;
    }
    if (hashes_[code] == h && strings_[code] == s) return code;
    slot = (slot + 1) & mask_;
  }
}

int64_t StringDict::FindWithHash(const std::string& s, uint64_t hash) const {
  size_t slot = static_cast<size_t>(hash) & mask_;
  for (;;) {
    uint32_t code = slots_[slot];
    if (code == kNullCode) return -1;
    if (hashes_[code] == hash && strings_[code] == s) return code;
    slot = (slot + 1) & mask_;
  }
}

Status StringDict::RestoreFrom(std::vector<std::string> strings) {
  if (!strings_.empty()) {
    return Status::Internal("StringDict::RestoreFrom on non-empty dictionary");
  }
  // Intern in code order: codes are first-appearance numbered, so the
  // restored dictionary assigns exactly code i to strings[i].
  for (std::string& s : strings) Intern(s);
  return Status::OK();
}

void StringDict::Grow() {
  size_t capacity = slots_.size() * 2;
  mask_ = capacity - 1;
  slots_.assign(capacity, kNullCode);
  for (uint32_t code = 0; code < strings_.size(); ++code) {
    size_t slot = static_cast<size_t>(hashes_[code]) & mask_;
    while (slots_[slot] != kNullCode) slot = (slot + 1) & mask_;
    slots_[slot] = code;
  }
}

}  // namespace beas

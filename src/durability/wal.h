#ifndef BEAS_DURABILITY_WAL_H_
#define BEAS_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "durability/serde.h"

namespace beas {
namespace durability {

/// \brief Kinds of logged operations. Data records (insert/batch/delete)
/// flow through the per-shard group-commit queues; structural records
/// (DDL, constraint changes) go to the meta WAL, logged synchronously
/// under the commit gate.
enum class WalRecordType : uint8_t {
  kInsert = 1,
  kInsertBatch = 2,
  kDelete = 3,
  kCreateTable = 4,
  kRegisterConstraint = 5,
  kUnregisterConstraint = 6,
  kAdjustLimit = 7,
  /// Reserved: earlier versions logged a dictionary renumbering. Nothing
  /// writes it now; replay skips it.
  kDictRebuild = 8,
};

/// \brief One logged operation. `lsn` is a database-global sequence
/// number: recovery merges every shard WAL plus the meta WAL and replays
/// in LSN order, which reproduces the pre-crash apply order for every
/// acked (and thus strictly ordered) operation.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  std::string payload;
};

/// \name WAL file framing.
///
/// File   := header record*
/// header := magic:u32 version:u32
/// record := len:u32 crc:u32 lsn:u64 type:u8 payload:bytes
///
/// `len` counts lsn+type+payload; `crc` is CRC-32C over those same bytes.
/// A record is valid iff it fits in the file and its CRC matches — the
/// read path stops at the first invalid record, treating everything after
/// as a torn tail (the only corruption a killed append can produce).
/// @{
constexpr uint32_t kWalMagic = 0x4C415742u;  // "BWAL"
constexpr uint32_t kWalVersion = 1;
constexpr uint64_t kWalHeaderBytes = 8;

/// Appends one framed record to `sink`.
void EncodeWalRecord(ByteSink* sink, const WalRecord& record);

/// Parse result of one WAL file: the valid records, and the byte offset
/// of the end of the valid prefix (recovery truncates the file there so
/// post-recovery appends never follow garbage).
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
};

/// Reads `path` through `env` (a whole-file view), validating the header
/// and every record CRC. A missing file yields an empty result; a file
/// with a foreign magic or version is a typed kCorruption error (never
/// silently replayed).
Result<WalReadResult> ReadWalFile(Env* env, const std::string& path);

/// Creates `path` with a fresh header if absent or empty. Leaves an
/// existing non-empty file untouched.
Status InitWalFile(Env* env, const std::string& path);
/// @}

}  // namespace durability
}  // namespace beas

#endif  // BEAS_DURABILITY_WAL_H_

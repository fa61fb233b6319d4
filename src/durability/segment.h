#ifndef BEAS_DURABILITY_SEGMENT_H_
#define BEAS_DURABILITY_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asx/ac_index.h"
#include "catalog/catalog.h"
#include "common/env.h"
#include "common/result.h"
#include "durability/serde.h"

namespace beas {
namespace durability {

/// \brief What a segment file holds. Checkpoint `N` of a database is a
/// directory `seg/ck<N>/` of these plus a manifest committing the set.
enum class SegmentKind : uint8_t {
  kTableMeta = 1,  ///< schema, shard layout, global slot directory
  kDict = 2,       ///< string dictionary (strings in code order)
  kShardRows = 3,  ///< one heap shard's rows + live flags
  kIndex = 4,      ///< one AC index's cells (keys, Y-sets, multiplicities)
  kManifest = 5,   ///< the checkpoint commit record
};

/// \name Segment file framing.
///
/// File := magic:u32 version:u32 kind:u8 crc:u32 payload_len:u64 payload
///
/// `crc` is CRC-32C of the payload. Readers mmap the file, validate the
/// header against the mapped bytes, and parse the payload in place.
///
/// Writers emit kSegVersion; readers accept every version from
/// kSegMinVersion. Version 2 dropped two redundant fields, both still
/// read (and ignored or checked) in version 1 files:
///  * the dictionary payload's order trailer (sorted u8, out_of_order u64,
///    rebuilds u64) — dictionary codes no longer change after interning;
///  * the table meta payload's dictionary flag byte — it follows from the
///    schema (every heap with a STRING column interns it).
/// @{
constexpr uint32_t kSegMagic = 0x47455342u;  // "BSEG"
constexpr uint32_t kSegVersion = 2;
constexpr uint32_t kSegMinVersion = 1;
constexpr uint64_t kSegHeaderBytes = 21;

/// Writes a complete segment file (truncate + append + fsync). Segment
/// files live in a fresh checkpoint directory referenced only by the
/// manifest written after all of them, so in-place write is crash-safe.
/// `payload_crc_out` (optional) receives the payload's CRC-32C — the
/// checkpoint records it as the scrubber's cross-check baseline.
Status WriteSegmentFile(Env* env, const std::string& path, SegmentKind kind,
                        const std::string& payload,
                        uint32_t* payload_crc_out = nullptr);

/// A validated whole-file segment view: `reader()` parses the payload in
/// place (no copy beyond what the Env's view itself holds).
struct SegmentView {
  std::unique_ptr<RandomAccessFile> file;
  uint32_t version = kSegVersion;
  uint32_t crc = 0;  ///< the validated payload CRC-32C
  const char* payload = nullptr;
  uint64_t payload_len = 0;

  ByteReader reader() const { return ByteReader(payload, payload_len); }
};

/// Opens and validates `path`; typed kCorruption on any magic / version /
/// kind / length / CRC mismatch.
Result<SegmentView> OpenSegment(Env* env, const std::string& path,
                                SegmentKind kind);

/// The scrubber's memory baseline of a dictionary segment: the CRC of its
/// payload in the current layout, which is what BuildDictPayload over the
/// restored dictionary produces. For a version 1 file that is the CRC of
/// the payload without its order trailer.
Result<uint32_t> DictBaselineCrc(const SegmentView& view);

/// Validates `path`'s framing and payload CRC without pinning the kind —
/// the verify-before-commit and scrub passes sweep whole checkpoint
/// directories with it. Returns the file's kind; `payload_crc_out`
/// (optional) receives the validated payload CRC for baseline capture.
Result<SegmentKind> VerifySegmentFile(Env* env, const std::string& path,
                                      uint32_t* payload_crc_out = nullptr);
/// @}

/// \name Payload builders (checkpoint write path).
/// Caller holds the database structural lock exclusively; the builders
/// read heap/dict/index state without locking.
/// @{
std::string BuildTableMetaPayload(const TableInfo& table);
std::string BuildDictPayload(const StringDict& dict);
std::string BuildShardRowsPayload(const TableHeap& heap, size_t shard);
std::string BuildIndexPayload(const AcIndex& index);
/// @}

/// \name Payload parsers (recovery read path).
/// @{
struct TableMetaRestore {
  Schema schema;
  /// The table has a dictionary segment: exactly when the schema has a
  /// STRING column (a version 1 flag byte that disagrees is rejected as
  /// corruption).
  bool has_dict = false;
  uint32_t num_shards = 1;
  int64_t shard_key_col = -1;
  /// Global slot directory: (shard, local) per slot, insertion order.
  std::vector<std::pair<uint32_t, uint32_t>> directory;
};
/// `version` is the segment file's (SegmentView::version).
Result<TableMetaRestore> ParseTableMetaPayload(ByteReader r,
                                               uint32_t version);

/// The dictionary's strings in code order.
Result<std::vector<std::string>> ParseDictPayload(ByteReader r,
                                                  uint32_t version);

/// One shard's slots, each packed as it is parsed (TableHeap::PackRestored)
/// against `heap`, whose dictionary must already be restored: no shard is
/// ever held as rows.
Result<TableHeap::ShardContent> ParseShardRowsPayload(ByteReader r,
                                                      const TableHeap& heap);

struct IndexRestore {
  AccessConstraint constraint;
  std::vector<AcIndex::RestoredBucket> buckets;  ///< strings inline
};
Result<IndexRestore> ParseIndexPayload(ByteReader r);
/// @}

}  // namespace durability
}  // namespace beas

#endif  // BEAS_DURABILITY_SEGMENT_H_

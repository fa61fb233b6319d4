#include "durability/segment.h"

#include "common/crc32.h"
#include "common/shard_config.h"

namespace beas {
namespace durability {

Status WriteSegmentFile(Env* env, const std::string& path, SegmentKind kind,
                        const std::string& payload,
                        uint32_t* payload_crc_out) {
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  if (payload_crc_out != nullptr) *payload_crc_out = crc;
  ByteSink header;
  header.PutU32(kSegMagic);
  header.PutU32(kSegVersion);
  header.PutU8(static_cast<uint8_t>(kind));
  header.PutU32(crc);
  header.PutU64(payload.size());
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                        env->NewWritableFile(path));
  BEAS_RETURN_NOT_OK(f->Truncate(0));
  BEAS_RETURN_NOT_OK(f->Append(header.str().data(), header.str().size()));
  BEAS_RETURN_NOT_OK(f->Append(payload.data(), payload.size()));
  return f->Sync();
}

namespace {

// Size of the order trailer that ends a version 1 dictionary payload:
// sorted u8, out_of_order u64, rebuilds u64.
constexpr uint64_t kDictV1TrailerBytes = 1 + 8 + 8;

struct SegmentHeader {
  uint32_t version = 0;
  uint8_t kind = 0;
  uint32_t crc = 0;
  uint64_t payload_len = 0;
};

// Validates the framing of a mapped segment file: magic, a readable
// version, the payload length and the payload CRC.
Result<SegmentHeader> ValidateSegment(const RandomAccessFile& file,
                                      const std::string& path) {
  if (file.size() < kSegHeaderBytes) {
    return Status::Corruption("segment too small: " + path);
  }
  ByteReader header(file.data(), kSegHeaderBytes);
  uint32_t magic = header.GetU32();
  SegmentHeader h;
  h.version = header.GetU32();
  h.kind = header.GetU8();
  h.crc = header.GetU32();
  h.payload_len = header.GetU64();
  if (magic != kSegMagic) {
    return Status::Corruption("not a BEAS segment: " + path);
  }
  if (h.version < kSegMinVersion || h.version > kSegVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(h.version) + ": " + path);
  }
  if (h.payload_len != file.size() - kSegHeaderBytes) {
    return Status::Corruption("segment length mismatch: " + path);
  }
  if (Crc32c(file.data() + kSegHeaderBytes, h.payload_len) != h.crc) {
    return Status::Corruption("segment CRC mismatch: " + path);
  }
  return h;
}

}  // namespace

Result<SegmentView> OpenSegment(Env* env, const std::string& path,
                                SegmentKind kind) {
  SegmentView view;
  BEAS_ASSIGN_OR_RETURN(view.file, env->NewRandomAccessFile(path));
  BEAS_ASSIGN_OR_RETURN(SegmentHeader h, ValidateSegment(*view.file, path));
  if (h.kind != static_cast<uint8_t>(kind)) {
    return Status::Corruption("segment kind mismatch: " + path);
  }
  view.version = h.version;
  view.crc = h.crc;
  view.payload = view.file->data() + kSegHeaderBytes;
  view.payload_len = h.payload_len;
  return view;
}

Result<uint32_t> DictBaselineCrc(const SegmentView& view) {
  uint64_t len = view.payload_len;
  if (view.version == 1) {
    if (len < kDictV1TrailerBytes) {
      return Status::Corruption("truncated dict segment");
    }
    len -= kDictV1TrailerBytes;
  }
  return Crc32c(view.payload, len);
}

Result<SegmentKind> VerifySegmentFile(Env* env, const std::string& path,
                                      uint32_t* payload_crc_out) {
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        env->NewRandomAccessFile(path));
  BEAS_ASSIGN_OR_RETURN(SegmentHeader h, ValidateSegment(*file, path));
  if (payload_crc_out != nullptr) *payload_crc_out = h.crc;
  return static_cast<SegmentKind>(h.kind);
}

std::string BuildTableMetaPayload(const TableInfo& table) {
  const TableHeap& heap = table.heap();
  ByteSink sink;
  WriteSchema(&sink, heap.schema());
  sink.PutU32(static_cast<uint32_t>(heap.num_shards()));
  sink.PutI64(heap.shard_key_col());
  sink.PutU64(heap.NumSlots());
  for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
    auto ref = heap.DirectorySlot(slot);
    sink.PutU32(ref.first);
    sink.PutU32(ref.second);
  }
  return sink.Take();
}

Result<TableMetaRestore> ParseTableMetaPayload(ByteReader r,
                                               uint32_t version) {
  TableMetaRestore out;
  BEAS_ASSIGN_OR_RETURN(out.schema, ReadSchema(&r));
  const uint8_t dict_flag = version == 1 ? r.GetU8() : 0;
  out.num_shards = r.GetU32();
  out.shard_key_col = r.GetI64();
  uint64_t slots = r.GetU64();
  if (!r.ok() || slots > r.remaining()) {
    return Status::IoError("truncated table meta");
  }
  if (out.num_shards == 0 || out.num_shards > kMaxStorageShards) {
    return Status::Corruption("table meta shard count " +
                              std::to_string(out.num_shards) +
                              " out of range");
  }
  // Every heap with a STRING column interns it. A version 1 flag byte is
  // therefore a function of the schema; a mismatch means damaged bytes.
  for (const Column& c : out.schema.columns()) {
    out.has_dict |= c.type == TypeId::kString;
  }
  if (version == 1 && dict_flag != (out.has_dict ? 1 : 0)) {
    return Status::Corruption("table meta dictionary flag " +
                              std::to_string(dict_flag) +
                              " contradicts its schema");
  }
  out.directory.reserve(slots);
  for (uint64_t i = 0; i < slots; ++i) {
    uint32_t shard = r.GetU32();
    uint32_t local = r.GetU32();
    out.directory.emplace_back(shard, local);
  }
  if (!r.ok()) return Status::IoError("truncated table meta directory");
  return out;
}

std::string BuildDictPayload(const StringDict& dict) {
  ByteSink sink;
  sink.PutU64(dict.size());
  for (uint32_t code = 0; code < dict.size(); ++code) {
    sink.PutString(dict.str(code));
  }
  return sink.Take();
}

Result<std::vector<std::string>> ParseDictPayload(ByteReader r,
                                                  uint32_t version) {
  uint64_t count = r.GetU64();
  if (!r.ok() || count > r.remaining()) {
    return Status::IoError("truncated dict segment");
  }
  std::vector<std::string> strings;
  strings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) strings.push_back(r.GetString());
  if (version == 1) {  // the order trailer: read and ignored
    r.GetU8();
    r.GetU64();
    r.GetU64();
  }
  if (!r.ok()) return Status::IoError("truncated dict segment");
  return strings;
}

std::string BuildShardRowsPayload(const TableHeap& heap, size_t shard) {
  ByteSink sink;
  size_t count = heap.ShardRowCount(shard);
  sink.PutU64(count);
  for (size_t i = 0; i < count; ++i) {
    sink.PutU8(heap.ShardRowLive(shard, i) ? 1 : 0);
    WriteRow(&sink, heap.DecodeRow(heap.ShardCellsAt(shard, i)));
  }
  return sink.Take();
}

Result<TableHeap::ShardContent> ParseShardRowsPayload(ByteReader r,
                                                      const TableHeap& heap) {
  TableHeap::ShardContent out;
  uint64_t count = r.GetU64();
  if (!r.ok() || count > r.remaining()) {
    return Status::IoError("truncated shard rows segment");
  }
  out.cells.resize(count * heap.stride());
  out.live.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out.live.push_back(r.GetU8());
    BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
    BEAS_RETURN_NOT_OK(
        heap.PackRestored(row, out.cells.data() + i * heap.stride()));
  }
  return out;
}

std::string BuildIndexPayload(const AcIndex& index) {
  ByteSink sink;
  WriteConstraint(&sink, index.constraint());
  ByteSink buckets;
  uint64_t num_buckets = 0;
  index.ForEachBucket([&](const ValueVec& key, const AcIndex::BucketView& ys) {
    ++num_buckets;
    WriteRow(&buckets, key);
    buckets.PutU32(static_cast<uint32_t>(ys.size()));
    for (size_t i = 0; i < ys.size(); ++i) {
      WriteRow(&buckets, ys.YRow(i));
      buckets.PutU64(ys.multiplicity(i));
    }
  });
  sink.PutU64(num_buckets);
  sink.PutRaw(buckets.str().data(), buckets.str().size());
  return sink.Take();
}

Result<IndexRestore> ParseIndexPayload(ByteReader r) {
  IndexRestore out;
  BEAS_ASSIGN_OR_RETURN(out.constraint, ReadConstraint(&r));
  uint64_t num_buckets = r.GetU64();
  if (!r.ok() || num_buckets > r.remaining()) {
    return Status::IoError("truncated index segment");
  }
  out.buckets.reserve(num_buckets);
  for (uint64_t b = 0; b < num_buckets; ++b) {
    AcIndex::RestoredBucket bucket;
    BEAS_ASSIGN_OR_RETURN(bucket.key, ReadRow(&r));
    uint32_t ny = r.GetU32();
    if (!r.ok() || ny > r.remaining()) {
      return Status::IoError("truncated index bucket");
    }
    bucket.ys.reserve(ny);
    bucket.mults.reserve(ny);
    for (uint32_t i = 0; i < ny; ++i) {
      BEAS_ASSIGN_OR_RETURN(Row y, ReadRow(&r));
      bucket.ys.push_back(std::move(y));
      bucket.mults.push_back(static_cast<size_t>(r.GetU64()));
    }
    out.buckets.push_back(std::move(bucket));
  }
  if (!r.ok()) return Status::IoError("truncated index segment");
  return out;
}

}  // namespace durability
}  // namespace beas

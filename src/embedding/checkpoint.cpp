#include "embedding/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fs_sync.h"

namespace hetkg::embedding {

namespace {

constexpr char kMagicV2[8] = {'H', 'E', 'T', 'K', 'G', 'C', 'K', '2'};
constexpr char kMagicV3[8] = {'H', 'E', 'T', 'K', 'G', 'C', 'K', '3'};

// Refuse absurd shapes before allocating.
constexpr uint64_t kMaxElements = 1ULL << 36;  // 256 GiB of floats.
// Structural cap on one section (same bound, in bytes).
constexpr uint64_t kMaxSectionBytes = kMaxElements * sizeof(float);

// Sidecar streaming chunk (bounded memory for multi-GB slabs).
constexpr size_t kColdChunkBytes = size_t{4} << 20;

std::string ColdSuffix(uint32_t base_tag) {
  return ".cold" + std::to_string(base_tag);
}

Result<EmbeddingTable> DecodeTableSection(const std::string& payload) {
  ByteReader r(payload);
  const uint64_t num_rows = r.U64();
  const uint64_t dim = r.U64();
  if (!r.ok() || num_rows == 0 || dim == 0 ||
      num_rows * dim > kMaxElements) {
    return Status::Corruption("implausible checkpoint table shape");
  }
  EmbeddingTable table(num_rows, dim);
  std::vector<float> row(dim);
  for (uint64_t i = 0; i < num_rows; ++i) {
    if (!r.ReadRaw(row.data(), dim * sizeof(float))) {
      return Status::Corruption("truncated checkpoint table section");
    }
    table.SetRow(i, row);
  }
  return table;
}

}  // namespace

void CheckpointWriter::AddSection(SectionTag tag, ByteWriter payload) {
  Section section;
  section.tag = static_cast<uint32_t>(tag);
  section.payload = payload.buffer();
  payload_bytes_ += section.payload.size();
  sections_.push_back(std::move(section));
}

void CheckpointWriter::AddColdSidecar(SectionTag base_tag, ColdDtype dtype,
                                      uint64_t rows, uint64_t dim,
                                      const uint8_t* data, uint64_t bytes) {
  ColdRecord record;
  record.base_tag = static_cast<uint32_t>(base_tag);
  record.dtype = dtype;
  record.rows = rows;
  record.dim = dim;
  record.data = data;
  record.bytes = bytes;
  payload_bytes_ += bytes;
  cold_.push_back(record);
}

void CheckpointWriter::AddColdTable(SectionTag base_tag,
                                    const EmbeddingTable& table) {
  AddColdSidecar(base_tag, table.dtype(), table.num_rows(), table.dim(),
                 table.EncodedData(), table.ColdBytes());
}

void CheckpointWriter::AddColdFloats(SectionTag base_tag,
                                     std::span<const float> data,
                                     uint64_t rows, uint64_t dim) {
  AddColdSidecar(base_tag, ColdDtype::kFp32, rows, dim,
                 reinterpret_cast<const uint8_t*>(data.data()),
                 data.size() * sizeof(float));
}

namespace {

/// Streams `record.bytes` from `record.data` to "<target>.tmp" in
/// chunks, CRC-ing on the fly, then fsync+renames to `target` — the
/// same atomicity discipline as the container itself.
Status WriteColdSidecarFile(const std::string& target, const uint8_t* data,
                            uint64_t bytes, bool durable, uint32_t* crc_out) {
  const std::string tmp_path = target + ".tmp";
  uint32_t crc = Crc32Init();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    for (uint64_t off = 0; off < bytes; off += kColdChunkBytes) {
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(kColdChunkBytes, bytes - off));
      out.write(reinterpret_cast<const char*>(data + off),
                static_cast<std::streamsize>(len));
      if (!out) {
        return Status::IoError("short write to " + tmp_path);
      }
      crc = Crc32Update(crc, data + off, len);
    }
  }
  if (durable) {
    HETKG_RETURN_IF_ERROR(SyncFile(tmp_path));
  }
  if (std::rename(tmp_path.c_str(), target.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp_path + " to " + target);
  }
  if (durable) {
    HETKG_RETURN_IF_ERROR(SyncParentDir(target));
  }
  *crc_out = Crc32Finish(crc);
  return Status::OK();
}

}  // namespace

Status CheckpointWriter::WriteAtomic(const std::string& path,
                                     bool durable) const {
  // Sidecars commit first: once the container (the commit point) is
  // visible, every sidecar it references already exists with final
  // bytes. A crash in between leaves sidecars with no container, which
  // the checkpoint manager's orphan sweep reclaims.
  std::vector<std::pair<const ColdRecord*, uint32_t>> cold_written;
  cold_written.reserve(cold_.size());
  for (const ColdRecord& record : cold_) {
    uint32_t crc = 0;
    HETKG_RETURN_IF_ERROR(
        WriteColdSidecarFile(path + ColdSuffix(record.base_tag), record.data,
                             record.bytes, durable, &crc));
    cold_written.emplace_back(&record, crc);
  }

  // Assemble the container in memory: its sections are bounded by the
  // (non-sidecar) training state, and a single buffered write keeps the
  // temp-file window (the only non-atomic step) minimal.
  std::string blob;
  blob.append(cold_.empty() ? kMagicV2 : kMagicV3, sizeof(kMagicV2));
  const uint64_t count = sections_.size() + cold_.size();
  blob.append(reinterpret_cast<const char*>(&count), sizeof(count));
  auto append_section = [&blob](uint32_t tag, const std::string& payload) {
    const uint32_t reserved = 0;
    const uint64_t len = payload.size();
    blob.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
    blob.append(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
    blob.append(reinterpret_cast<const char*>(&len), sizeof(len));
    blob.append(payload);
  };
  for (const Section& section : sections_) {
    append_section(section.tag, section.payload);
  }
  for (const auto& [record, crc] : cold_written) {
    ByteWriter meta;
    meta.U32(record->base_tag);
    meta.U32(static_cast<uint32_t>(record->dtype));
    meta.U64(record->rows);
    meta.U64(record->dim);
    meta.U64(record->bytes);
    meta.U32(crc);
    meta.Str(ColdSuffix(record->base_tag));
    append_section(static_cast<uint32_t>(SectionTag::kColdTableMeta),
                   meta.buffer());
  }
  const uint32_t crc = Crc32(blob.data(), blob.size());
  blob.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) {
      return Status::IoError("short write to " + tmp_path);
    }
  }
  // Durability order: the temp file's bytes must be on stable storage
  // BEFORE the rename makes them reachable, and the directory entry
  // itself after — otherwise a power loss can leave the final name (or
  // a MANIFEST referencing it) pointing at a torn file that CRC-32
  // rejects exactly when the snapshot is needed.
  if (durable) {
    HETKG_RETURN_IF_ERROR(SyncFile(tmp_path));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  if (durable) {
    HETKG_RETURN_IF_ERROR(SyncParentDir(path));
  }
  return Status::OK();
}

Result<CheckpointReader> CheckpointReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  // One read sized from the file length, not a byte-at-a-time copy. A
  // directory opens fine but reports an absurd length, so anything
  // other than a regular file is refused before sizing the buffer.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IoError("not a regular file: " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff length = in.tellg();
  in.seekg(0, std::ios::beg);
  if (length < 0 || !in) {
    return Status::IoError("read failed for " + path);
  }
  std::string blob(static_cast<size_t>(length), '\0');
  in.read(blob.data(), length);
  if (in.bad() || in.gcount() != length) {
    return Status::IoError("read failed for " + path);
  }
  if (blob.size() < sizeof(kMagicV2) + sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::Corruption("checkpoint too small: " + path);
  }
  const bool v3 = std::memcmp(blob.data(), kMagicV3, sizeof(kMagicV3)) == 0;
  if (!v3 && std::memcmp(blob.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::Corruption("bad checkpoint magic in " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + blob.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const uint32_t crc =
      Crc32(blob.data(), blob.size() - sizeof(stored_crc));
  if (crc != stored_crc) {
    return Status::Corruption("checkpoint CRC mismatch in " + path);
  }

  ByteReader r(blob.data() + sizeof(kMagicV2),
               blob.size() - sizeof(kMagicV2) - sizeof(stored_crc));
  const uint64_t count = r.U64();
  CheckpointReader reader;
  reader.path_ = path;
  for (uint64_t i = 0; i < count; ++i) {
    Section section;
    section.tag = r.U32();
    const uint32_t reserved = r.U32();
    const uint64_t len = r.U64();
    if (!r.ok() || reserved != 0 || len > kMaxSectionBytes ||
        len > r.remaining()) {
      return Status::Corruption("malformed checkpoint section in " + path);
    }
    section.payload.resize(len);
    r.ReadRaw(section.payload.data(), len);
    reader.sections_.push_back(std::move(section));
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("trailing bytes in checkpoint " + path);
  }

  // V3: parse sidecar metadata and verify each sidecar's size + CRC by
  // a streaming pass (payloads stay on disk).
  for (const Section& section : reader.sections_) {
    if (section.tag != static_cast<uint32_t>(SectionTag::kColdTableMeta)) {
      continue;
    }
    if (!v3) {
      return Status::Corruption("cold sidecar metadata in a V2 container: " +
                                path);
    }
    ByteReader mr(section.payload);
    ColdSidecar meta;
    meta.base_tag = mr.U32();
    meta.dtype = static_cast<ColdDtype>(mr.U32());
    meta.rows = mr.U64();
    meta.dim = mr.U64();
    meta.bytes = mr.U64();
    meta.crc = mr.U32();
    meta.suffix = mr.Str();
    if (!mr.ok() || mr.remaining() != 0 || meta.rows == 0 || meta.dim == 0 ||
        meta.rows * meta.dim > kMaxElements ||
        meta.bytes != meta.rows * ColdRowBytes(meta.dtype, meta.dim) ||
        meta.suffix.empty() || meta.suffix.find('/') != std::string::npos) {
      return Status::Corruption("malformed cold sidecar metadata in " + path);
    }
    uint32_t crc = Crc32Init();
    uint64_t seen = 0;
    HETKG_RETURN_IF_ERROR(reader.StreamCold(
        meta, [&crc, &seen](const uint8_t* chunk, size_t len) {
          crc = Crc32Update(crc, chunk, len);
          seen += len;
          return Status::OK();
        }));
    if (seen != meta.bytes || Crc32Finish(crc) != meta.crc) {
      return Status::Corruption("cold sidecar CRC mismatch for " + path +
                                meta.suffix);
    }
    reader.cold_.push_back(std::move(meta));
  }
  return reader;
}

const ColdSidecar* CheckpointReader::FindCold(SectionTag tag) const {
  for (const ColdSidecar& meta : cold_) {
    if (meta.base_tag == static_cast<uint32_t>(tag)) return &meta;
  }
  return nullptr;
}

Status CheckpointReader::StreamCold(
    const ColdSidecar& meta,
    const std::function<Status(const uint8_t* chunk, size_t len)>& sink)
    const {
  const std::string sidecar_path = path_ + meta.suffix;
  std::ifstream in(sidecar_path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open cold sidecar " + sidecar_path);
  }
  std::vector<uint8_t> chunk(
      static_cast<size_t>(std::min<uint64_t>(kColdChunkBytes, meta.bytes)));
  uint64_t remaining = meta.bytes;
  while (remaining > 0) {
    const size_t len =
        static_cast<size_t>(std::min<uint64_t>(chunk.size(), remaining));
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(len));
    if (static_cast<size_t>(in.gcount()) != len) {
      return Status::Corruption("truncated cold sidecar " + sidecar_path);
    }
    HETKG_RETURN_IF_ERROR(sink(chunk.data(), len));
    remaining -= len;
  }
  in.peek();
  if (!in.eof()) {
    return Status::Corruption("trailing bytes in cold sidecar " +
                              sidecar_path);
  }
  return Status::OK();
}

Status CheckpointReader::ReadColdInto(const ColdSidecar& meta,
                                      uint8_t* dst) const {
  uint64_t off = 0;
  return StreamCold(meta, [dst, &off](const uint8_t* chunk, size_t len) {
    std::memcpy(dst + off, chunk, len);
    off += len;
    return Status::OK();
  });
}

const std::string* CheckpointReader::Find(SectionTag tag) const {
  for (const Section& section : sections_) {
    if (section.tag == static_cast<uint32_t>(tag)) return &section.payload;
  }
  return nullptr;
}

std::vector<const std::string*> CheckpointReader::FindAll(
    SectionTag tag) const {
  std::vector<const std::string*> out;
  for (const Section& section : sections_) {
    if (section.tag == static_cast<uint32_t>(tag)) {
      out.push_back(&section.payload);
    }
  }
  return out;
}

void AppendTableSection(CheckpointWriter* writer, SectionTag tag,
                        const EmbeddingTable& table) {
  ByteWriter w;
  w.U64(table.num_rows());
  w.U64(table.dim());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const auto row = table.Row(i);
    w.Raw(row.data(), row.size() * sizeof(float));
  }
  writer->AddSection(tag, std::move(w));
}

namespace {

/// Streams a cold sidecar row by row through `row_fn(index, encoded)`.
Status ForEachColdRow(
    const CheckpointReader& reader, const ColdSidecar& meta,
    const std::function<Status(uint64_t row, const uint8_t* encoded)>&
        row_fn) {
  const size_t row_bytes = ColdRowBytes(meta.dtype, meta.dim);
  uint64_t row = 0;
  size_t partial = 0;
  std::vector<uint8_t> carry(row_bytes);
  return reader.StreamCold(
      meta, [&](const uint8_t* chunk, size_t len) -> Status {
        size_t off = 0;
        // Finish a row split across the previous chunk boundary.
        if (partial > 0) {
          const size_t take = std::min(row_bytes - partial, len);
          std::memcpy(carry.data() + partial, chunk, take);
          partial += take;
          off = take;
          if (partial == row_bytes) {
            HETKG_RETURN_IF_ERROR(row_fn(row++, carry.data()));
            partial = 0;
          }
        }
        while (off + row_bytes <= len) {
          HETKG_RETURN_IF_ERROR(row_fn(row++, chunk + off));
          off += row_bytes;
        }
        if (off < len) {
          partial = len - off;
          std::memcpy(carry.data(), chunk + off, partial);
        }
        return Status::OK();
      });
}

/// Materializes a cold sidecar as an in-RAM fp32 table.
Result<EmbeddingTable> DecodeColdTable(const CheckpointReader& reader,
                                       const ColdSidecar& meta) {
  EmbeddingTable table(meta.rows, meta.dim);
  std::vector<float> row(meta.dim);
  HETKG_RETURN_IF_ERROR(ForEachColdRow(
      reader, meta, [&](uint64_t i, const uint8_t* encoded) {
        DecodeColdRow(meta.dtype, encoded, row);
        table.SetRow(i, row);
        return Status::OK();
      }));
  return table;
}

}  // namespace

Result<EmbeddingTable> ReadTableSection(const CheckpointReader& reader,
                                        SectionTag tag) {
  const std::string* payload = reader.Find(tag);
  if (payload != nullptr) {
    return DecodeTableSection(*payload);
  }
  const ColdSidecar* meta = reader.FindCold(tag);
  if (meta != nullptr) {
    return DecodeColdTable(reader, *meta);
  }
  return Status::Corruption("checkpoint is missing table section " +
                            std::to_string(static_cast<uint32_t>(tag)));
}

Status LoadTableSectionInto(const CheckpointReader& reader, SectionTag tag,
                            EmbeddingTable* table) {
  const ColdSidecar* meta = reader.FindCold(tag);
  if (meta != nullptr) {
    if (meta->rows != table->num_rows() || meta->dim != table->dim()) {
      return Status::Corruption("snapshot table shape mismatch");
    }
    if (table->tiered() && meta->dtype == table->dtype()) {
      // Identical encoding: raw slab stream, bit-exact resume.
      return reader.ReadColdInto(*meta, table->EncodedData());
    }
    std::vector<float> row(meta->dim);
    return ForEachColdRow(reader, *meta,
                          [&](uint64_t i, const uint8_t* encoded) {
                            DecodeColdRow(meta->dtype, encoded, row);
                            table->SetRow(i, row);
                            return Status::OK();
                          });
  }
  const std::string* payload = reader.Find(tag);
  if (payload == nullptr) {
    return Status::Corruption("checkpoint is missing table section " +
                              std::to_string(static_cast<uint32_t>(tag)));
  }
  ByteReader r(*payload);
  const uint64_t num_rows = r.U64();
  const uint64_t dim = r.U64();
  if (!r.ok() || num_rows != table->num_rows() || dim != table->dim()) {
    return Status::Corruption("snapshot table shape mismatch");
  }
  std::vector<float> row(dim);
  for (uint64_t i = 0; i < num_rows; ++i) {
    if (!r.ReadRaw(row.data(), dim * sizeof(float))) {
      return Status::Corruption("truncated checkpoint table section");
    }
    table->SetRow(i, row);
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes in checkpoint table section");
  }
  return Status::OK();
}

Result<std::vector<float>> ReadColdFloats(const CheckpointReader& reader,
                                          SectionTag tag) {
  const ColdSidecar* meta = reader.FindCold(tag);
  if (meta == nullptr) {
    return Status::Corruption("checkpoint is missing cold section " +
                              std::to_string(static_cast<uint32_t>(tag)));
  }
  if (meta->dtype != ColdDtype::kFp32) {
    return Status::Corruption("cold section " +
                              std::to_string(static_cast<uint32_t>(tag)) +
                              " is not fp32");
  }
  std::vector<float> data(meta->rows * meta->dim);
  HETKG_RETURN_IF_ERROR(
      reader.ReadColdInto(*meta, reinterpret_cast<uint8_t*>(data.data())));
  return data;
}

Status SaveCheckpoint(const std::string& path, const EmbeddingTable& entities,
                      const EmbeddingTable& relations) {
  CheckpointWriter writer;
  AppendTableSection(&writer, SectionTag::kEntityTable, entities);
  AppendTableSection(&writer, SectionTag::kRelationTable, relations);
  return writer.WriteAtomic(path);
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open " + path);
    }
    char magic[8];
    if (!in.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
      return Status::Corruption("bad checkpoint magic in " + path);
    }
  }
  HETKG_ASSIGN_OR_RETURN(CheckpointReader reader,
                         CheckpointReader::Open(path));
  Checkpoint ck;
  HETKG_ASSIGN_OR_RETURN(
      ck.entities, ReadTableSection(reader, SectionTag::kEntityTable));
  HETKG_ASSIGN_OR_RETURN(
      ck.relations, ReadTableSection(reader, SectionTag::kRelationTable));
  return ck;
}

}  // namespace hetkg::embedding

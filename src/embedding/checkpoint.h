#ifndef HETKG_EMBEDDING_CHECKPOINT_H_
#define HETKG_EMBEDDING_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "embedding/embedding_table.h"
#include "embedding/tiered_store.h"

namespace hetkg::embedding {

/// Section tags of the HETKGCK2 container. Embedding tables use fixed
/// tags so an eval-only checkpoint and a full training-state snapshot
/// share one format: LoadCheckpoint reads tags 1-2 from either file.
enum class SectionTag : uint32_t {
  kEntityTable = 1,
  kRelationTable = 2,
  kTrainerMeta = 3,
  kPsOptimizer = 4,
  kPsRuntime = 5,
  kWorker = 6,        // Repeated, one per worker; payload leads with id.
  kClusterState = 7,  // ClusterSim counters + transport clock/metrics.
  kEngineCounters = 8,
  kPbgState = 9,
  /// Describes one cold sidecar file (DESIGN.md §16): shape, dtype, and
  /// CRC of "<snapshot>.cold<base_tag>". The payload itself lives in
  /// the sidecar, never in the container, so a quantized multi-GB table
  /// round-trips without materializing in RAM.
  kColdTableMeta = 10,
  /// Sidecar base tags for the fp32 AdaGrad accumulators of a tiered
  /// quantized run (the in-container kPsOptimizer section is replaced).
  kEntityOptState = 11,
  kRelationOptState = 12,
};

/// Parsed kColdTableMeta record: one sidecar file of a HETKGCK3
/// snapshot. `suffix` appends to the snapshot path (".cold<base_tag>").
struct ColdSidecar {
  uint32_t base_tag = 0;
  ColdDtype dtype = ColdDtype::kFp32;
  uint64_t rows = 0;
  uint64_t dim = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;
  std::string suffix;
};

/// Versioned checkpoint container (DESIGN.md §9):
///
///   magic "HETKGCK2"
///   u64 section_count
///   repeat: u32 tag | u32 reserved(0) | u64 payload_len | payload
///   u32 CRC-32 (IEEE) over everything from the magic onward
///
/// Little-endian throughout. The retired HETKGCK1 layout is rejected as
/// bad magic.
///
/// Assembles sections in memory and writes the file atomically
/// (temp file + rename), so a crash mid-write never leaves a truncated
/// checkpoint under the final name. A stale "<path>.tmp" left by a
/// crash between write and rename is truncated/overwritten on the next
/// save; core/checkpoint_manager.h additionally sweeps orphaned temps
/// at startup.
class CheckpointWriter {
 public:
  /// Appends one section; `payload` is consumed.
  void AddSection(SectionTag tag, ByteWriter payload);

  /// Registers an encoded slab to be streamed into the sidecar file
  /// "<path>.cold<base_tag>" by WriteAtomic (a kColdTableMeta section
  /// is synthesized in the container). `data` must stay valid until
  /// WriteAtomic returns. Registering any sidecar switches the file's
  /// magic to HETKGCK3; files without sidecars stay byte-identical V2.
  void AddColdSidecar(SectionTag base_tag, ColdDtype dtype, uint64_t rows,
                      uint64_t dim, const uint8_t* data, uint64_t bytes);

  /// Registers a tiered table's cold slab (quantized snapshotting).
  void AddColdTable(SectionTag base_tag, const EmbeddingTable& table);

  /// Registers a raw fp32 blob (AdaGrad accumulators) as a sidecar.
  void AddColdFloats(SectionTag base_tag, std::span<const float> data,
                     uint64_t rows, uint64_t dim);

  /// Serializes magic + sections + CRC and atomically replaces `path`.
  /// With `durable` (the default), the temp file is fsync()ed before
  /// the rename and the parent directory after it, so a power loss
  /// after this returns can never surface a torn file under the final
  /// name (common/fs_sync.h). `durable = false` skips both syncs —
  /// atomic against process crashes only (--checkpoint_fsync=false).
  ///
  /// Sidecars registered via AddCold* are streamed (chunked, bounded
  /// memory) to "<path>.cold<k>" under the same temp+fsync+rename
  /// discipline BEFORE the container commits, so a visible container
  /// never references a missing or torn sidecar.
  Status WriteAtomic(const std::string& path, bool durable = true) const;

  /// Total payload bytes appended so far (checkpoint.bytes metric),
  /// including sidecar bytes.
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  struct Section {
    uint32_t tag = 0;
    std::string payload;
  };
  struct ColdRecord {
    uint32_t base_tag = 0;
    ColdDtype dtype = ColdDtype::kFp32;
    uint64_t rows = 0;
    uint64_t dim = 0;
    const uint8_t* data = nullptr;
    uint64_t bytes = 0;
  };
  std::vector<Section> sections_;
  std::vector<ColdRecord> cold_;
  uint64_t payload_bytes_ = 0;
};

/// Parsed HETKGCK2 container: validates magic, structure, and CRC up
/// front, then hands out read-only section payloads.
class CheckpointReader {
 public:
  /// Reads and validates `path`; Corruption on bad magic/structure/CRC,
  /// IoError when the file cannot be read. HETKGCK3 files
  /// additionally have every cold sidecar's size and CRC verified by a
  /// streaming pass (the sidecar payloads are NOT loaded into memory).
  static Result<CheckpointReader> Open(const std::string& path);

  /// First section with `tag`, or nullptr.
  const std::string* Find(SectionTag tag) const;

  /// All sections with `tag`, in file order.
  std::vector<const std::string*> FindAll(SectionTag tag) const;

  /// Cold sidecar whose base tag is `tag`, or nullptr (V2 files have
  /// none).
  const ColdSidecar* FindCold(SectionTag tag) const;

  /// Streams the sidecar's payload through `sink` in bounded chunks.
  Status StreamCold(const ColdSidecar& meta,
                    const std::function<Status(const uint8_t* chunk,
                                               size_t len)>& sink) const;

  /// Streams the sidecar's payload into `dst` (exactly meta.bytes).
  Status ReadColdInto(const ColdSidecar& meta, uint8_t* dst) const;

  const std::string& path() const { return path_; }

 private:
  struct Section {
    uint32_t tag = 0;
    std::string payload;
  };
  std::vector<Section> sections_;
  std::vector<ColdSidecar> cold_;
  std::string path_;
};

/// Appends an embedding table as one section (u64 rows | u64 dim | f32
/// row data).
void AppendTableSection(CheckpointWriter* writer, SectionTag tag,
                        const EmbeddingTable& table);

/// Decodes a table section written by AppendTableSection. When the
/// container carries no in-band section for `tag` but a cold sidecar
/// uses it as base tag (quantized snapshot), the sidecar is decoded
/// into an in-RAM fp32 table instead — eval and shard-restart paths
/// work unchanged against HETKGCK3 files.
Result<EmbeddingTable> ReadTableSection(const CheckpointReader& reader,
                                        SectionTag tag);

/// Restores table state for `tag` into the caller's existing `table`
/// (any backend) without materializing a second full copy:
///   - cold sidecar, identical dtype/shape  -> raw slab stream
///     (bit-exact quantized resume),
///   - cold sidecar, different dtype        -> per-row decode + SetRow,
///   - in-band fp32 section                 -> per-row SetRow
///     (quantizing tables re-encode on write).
/// Corruption when neither form is present or shapes disagree.
Status LoadTableSectionInto(const CheckpointReader& reader, SectionTag tag,
                            EmbeddingTable* table);

/// Reads a fp32 cold sidecar (AdaGrad accumulators) into one vector.
Result<std::vector<float>> ReadColdFloats(const CheckpointReader& reader,
                                          SectionTag tag);

/// In-memory snapshot of a trained model: both embedding tables plus
/// the shape metadata needed to reload them without external context.
struct Checkpoint {
  EmbeddingTable entities{1, 1};
  EmbeddingTable relations{1, 1};
};

/// Writes `entities` and `relations` to `path` atomically as an
/// eval-only HETKGCK2 file (table sections only).
Status SaveCheckpoint(const std::string& path, const EmbeddingTable& entities,
                      const EmbeddingTable& relations);

/// Reads the embedding tables of a checkpoint — HETKGCK2 (eval-only or
/// full training snapshot). Fails with Corruption on bad magic
/// (HETKGCK1 included), size mismatch, or checksum failure.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_CHECKPOINT_H_

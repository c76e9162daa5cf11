#ifndef HETKG_EMBEDDING_EMBEDDING_TABLE_H_
#define HETKG_EMBEDDING_EMBEDDING_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "embedding/tiered_store.h"

namespace hetkg::embedding {

/// Dense row-major embedding storage: `num_rows` vectors of `dim`
/// floats. This is the storage unit shared by the parameter-server
/// shards (global embeddings) and the worker caches (hot embeddings).
///
/// Two backends (DESIGN.md §16):
///   in-RAM  — the default; rows live in an fp32 heap vector.
///   tiered  — rows live in an mmap-backed cold slab (--storage=tiered)
///             as fp32, fp16, or per-row-affine int8. fp32 cold rows
///             stay directly addressable (Row() works, training is
///             bit-identical to in-RAM); quantized rows are reached via
///             ReadRowInto()/DecodedRow() (dequantize-on-pull) and
///             SetRow() (quantize-on-write-back).
class EmbeddingTable {
 public:
  EmbeddingTable(size_t num_rows, size_t dim);
  ~EmbeddingTable() = default;
  EmbeddingTable(EmbeddingTable&& other) noexcept;
  EmbeddingTable& operator=(EmbeddingTable&& other) noexcept;
  EmbeddingTable(const EmbeddingTable&) = delete;
  EmbeddingTable& operator=(const EmbeddingTable&) = delete;

  /// Builds a table per `opts`: in-RAM when !opts.enabled, otherwise
  /// backed by the cold slab "<opts.cold_dir>/<name>.cold.tmp".
  static Result<EmbeddingTable> CreateTiered(size_t num_rows, size_t dim,
                                             const TieredOptions& opts,
                                             const std::string& name);

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }
  bool tiered() const { return tiered_; }
  ColdDtype dtype() const { return dtype_; }

  /// True when rows are raw fp32 in memory (in-RAM or fp32 cold tier),
  /// i.e. Row() is usable. Quantized tables must go through
  /// ReadRowInto()/DecodedRow()/SetRow().
  bool row_addressable() const { return f32_data_ != nullptr; }

  std::span<float> Row(size_t i) {
    assert(f32_data_ != nullptr);
    return {f32_data_ + i * dim_, dim_};
  }
  std::span<const float> Row(size_t i) const {
    assert(f32_data_ != nullptr);
    return {f32_data_ + i * dim_, dim_};
  }

  /// Decodes row `i` into `out` (length dim()). Works on every backend;
  /// on quantized tables this is the dequantize-on-pull path and counts
  /// toward cold_reads().
  void ReadRowInto(size_t i, std::span<float> out) const;

  /// Read-only fp32 view of row `i` on any backend. For quantized
  /// tables the view points into a thread-local decode ring that
  /// recycles after ~kDecodeRingFloats floats of subsequent
  /// DecodedRow() calls on the same thread — callers may hold a batch
  /// of views (triple + candidate rows) but must not stash them.
  std::span<const float> DecodedRow(size_t i) const;

  /// Overwrites row `i` with `values` (must have length dim()). On
  /// quantized tables this is the quantize-on-write-back path.
  void SetRow(size_t i, std::span<const float> values);

  /// Adds `delta` into row `i` (decode + add + re-encode when
  /// quantized; gradient accumulation itself is always fp32).
  void AccumulateRow(size_t i, std::span<const float> delta);

  /// Uniform init in [-bound, bound]; the conventional KGE choice is
  /// bound = 6 / sqrt(dim) (Xavier-style), which InitXavierUniform uses.
  /// All inits draw RNG values in row-major element order on every
  /// backend, so in-RAM and tiered-fp32 tables initialize identically.
  void InitUniform(Rng* rng, float bound);
  void InitXavierUniform(Rng* rng);
  void InitGaussian(Rng* rng, float stddev);

  /// L2-normalizes row `i` in place (no-op on the zero vector). TransE
  /// applies this to entity rows after updates, per Bordes et al.
  void L2NormalizeRow(size_t i);

  /// Total parameter bytes (for memory/communication accounting):
  /// heap bytes for in-RAM tables, mapped slab bytes for tiered ones.
  size_t SizeBytes() const {
    return tiered_ ? cold_.size() : data_.size() * sizeof(float);
  }

  /// Mapped cold-slab bytes (0 for in-RAM tables) — `tier.bytes_mapped`.
  size_t ColdBytes() const { return tiered_ ? cold_.size() : 0; }

  /// Rows dequantized from the cold tier so far (`tier.cold_reads`).
  /// Always 0 for in-RAM and fp32-tiered tables (their reads are plain
  /// loads, not decodes).
  uint64_t cold_reads() const {
    return cold_reads_.load(std::memory_order_relaxed);
  }

  /// msync the cold slab (no-op in-RAM). Checkpointing quantized tables
  /// streams the slab file, so it must be coherent first.
  Status SyncCold() const;

  /// Drops the cold slab's resident pages (no-op in-RAM). Used after
  /// bulk passes (initialization) to bound steady-state RSS.
  void DropColdResidency() const;

  /// madvise(MADV_WILLNEED) the pages of row `i` (no-op in-RAM).
  /// Driven by the hot filter's hotness ranking and the prefetch
  /// window: rows about to be pulled fault in ahead of use.
  void AdviseRowWillNeed(size_t i) const;

  /// Raw encoded slab bytes — checkpoint streaming (null for in-RAM).
  const uint8_t* EncodedData() const {
    return tiered_ ? cold_.data() : nullptr;
  }
  uint8_t* EncodedData() { return tiered_ ? cold_.data() : nullptr; }
  size_t EncodedRowBytes() const { return row_bytes_; }

 private:
  EmbeddingTable() = default;

  size_t num_rows_ = 0;
  size_t dim_ = 0;
  bool tiered_ = false;
  ColdDtype dtype_ = ColdDtype::kFp32;
  size_t row_bytes_ = 0;  // Encoded bytes per row (cold layout).
  MmapFile cold_;
  std::vector<float> data_;        // In-RAM backend only.
  float* f32_data_ = nullptr;      // data_ or fp32 slab; null if quantized.
  uint8_t* encoded_ = nullptr;     // Cold slab base (tiered only).
  mutable std::atomic<uint64_t> cold_reads_{0};
};

/// Capacity of the per-thread decode ring backing DecodedRow() views of
/// quantized tables (floats, not rows): ~2048 live rows at dim 128.
inline constexpr size_t kDecodeRingFloats = size_t{1} << 18;

/// Per-row L2 norm: the serial double sum of squares, j = 0..n-1.
double RowNorm(std::span<const float> row);

/// Scales `row` to unit L2 norm: multiplies by float(1 / RowNorm(row)).
/// Rows with norm <= 1e-12 are left untouched and return false. The
/// scalar reference of every entity renormalize (L2NormalizeRow,
/// AdaGrad::ApplyRows).
bool NormalizeRowL2(std::span<float> row);

/// Dot product of two rows of equal length.
double RowDot(std::span<const float> a, std::span<const float> b);

}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_EMBEDDING_TABLE_H_

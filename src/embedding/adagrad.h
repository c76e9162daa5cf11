#ifndef HETKG_EMBEDDING_ADAGRAD_H_
#define HETKG_EMBEDDING_ADAGRAD_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "embedding/tiered_store.h"

namespace hetkg::embedding {

/// Sparse AdaGrad (Duchi et al.), the optimizer used by the paper's
/// Algorithm 4 on the parameter server:
///   G_i  += g_i * g_i            (per-coordinate accumulator)
///   w_i  -= lr * g_i / sqrt(G_i + eps)
///
/// State is one accumulator per parameter, allocated per row lazily is
/// unnecessary here since tables are dense; we keep a parallel table.
///
/// The accumulator is ALWAYS fp32 — under --storage=tiered it moves
/// behind an mmap slab alongside the cold embedding rows (the paper
/// notes AdaGrad's extra memory cost in Sec. VI-A; at Freebase-86m
/// scale that cost must also live behind the file, not the heap), but
/// it is never quantized: second-moment accumulation in reduced
/// precision stalls the step size.
class AdaGrad {
 public:
  /// `num_rows` x `dim` accumulator initialized to zero (in-RAM).
  AdaGrad(size_t num_rows, size_t dim, double learning_rate,
          double epsilon = 1e-10);

  AdaGrad(AdaGrad&&) noexcept = default;
  AdaGrad& operator=(AdaGrad&&) noexcept = default;
  AdaGrad(const AdaGrad&) = delete;
  AdaGrad& operator=(const AdaGrad&) = delete;

  /// In-RAM when !opts.enabled; otherwise the accumulator is an fp32
  /// mmap slab "<opts.cold_dir>/<name>.cold.tmp" regardless of
  /// opts.dtype (see class comment).
  static Result<AdaGrad> CreateTiered(size_t num_rows, size_t dim,
                                      double learning_rate,
                                      const TieredOptions& opts,
                                      const std::string& name,
                                      double epsilon = 1e-10);

  /// Applies gradient `grad` to parameter row `row` (both length dim).
  void Apply(size_t row_index, std::span<float> row,
             std::span<const float> grad);

  /// One row through ApplyRows without renormalizing: bit-identical to
  /// Apply on every kernel path.
  void ApplyBatch(size_t row_index, std::span<float> row,
                  std::span<const float> grad);

  /// Batched step: applies grads[k] to rows[k] with accumulator row
  /// slots[k], in index order, then (with `normalize`) L2-renormalizes
  /// each updated row exactly as EmbeddingTable::L2NormalizeRow does.
  /// The AVX2 path is one fused kernel (kernels::AdaGradApplyRows);
  /// every other path runs the scalar reference, Apply followed by
  /// NormalizeRowL2. Both give the same bits. Every span must hold
  /// dim() floats and every slot be < num_rows().
  void ApplyRows(std::span<const size_t> slots,
                 std::span<const std::span<float>> rows,
                 std::span<const std::span<const float>> grads,
                 bool normalize);

  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double epsilon() const { return epsilon_; }
  size_t dim() const { return dim_; }
  size_t num_rows() const { return dim_ == 0 ? 0 : accum_size_ / dim_; }

  /// Accumulator row, exposed for tests and for checkpointing.
  std::span<const float> AccumulatorRow(size_t i) const {
    return {accum_data_ + i * dim_, dim_};
  }

  /// Overwrites one row's accumulator (row-granular shard restore).
  void SetAccumulatorRow(size_t i, std::span<const float> value) {
    std::copy(value.begin(), value.end(), accum_data_ + i * dim_);
  }

  /// Overwrites the whole accumulator (validate-then-commit restores;
  /// `data` must hold exactly num_rows * dim floats).
  void SetAccumulatorData(std::span<const float> data) {
    assert(data.size() == accum_size_);
    std::copy(data.begin(), data.end(), accum_data_);
  }

  /// Clears one row's accumulator (used when a cache slot is reassigned
  /// to a different embedding).
  void ResetRow(size_t i);

  /// Memory held by the optimizer state.
  size_t SizeBytes() const { return accum_size_ * sizeof(float); }

  /// Mapped accumulator bytes (0 when in-RAM) — `tier.bytes_mapped`.
  size_t ColdBytes() const { return cold_.valid() ? cold_.size() : 0; }

  /// Full accumulator as one fp32 span (checkpoint streaming).
  std::span<const float> AccumulatorData() const {
    return {accum_data_, accum_size_};
  }

  /// msync the mmap-backed accumulator (no-op in-RAM).
  Status SyncCold() const {
    return cold_.valid() ? cold_.Sync() : Status::OK();
  }

  /// Drops resident accumulator pages (no-op in-RAM).
  void DropColdResidency() const {
    if (cold_.valid()) cold_.DropResidency();
  }

  /// Accumulator round-trip for the HETKGCK2 training snapshots (shape
  /// parameters come from config; only the accumulators are state).
  void SaveState(ByteWriter* w) const {
    w->FloatVec(std::span<const float>(accum_data_, accum_size_));
  }
  bool LoadState(ByteReader* r) {
    std::vector<float> accum = r->FloatVec();
    if (!r->ok() || accum.size() != accum_size_) return false;
    std::copy(accum.begin(), accum.end(), accum_data_);
    return true;
  }

 private:
  AdaGrad() = default;

  size_t dim_ = 0;
  double learning_rate_ = 0.0;
  double epsilon_ = 1e-10;
  std::vector<float> accum_;       // In-RAM backend only.
  MmapFile cold_;                  // Tiered backend only.
  float* accum_data_ = nullptr;    // accum_.data() or the slab base.
  size_t accum_size_ = 0;          // Total floats (num_rows * dim).
};

/// Reusable gather buffer for one AdaGrad::ApplyRows call: callers
/// group the rows of one table here, then pass the three vectors.
struct RowBatch {
  std::vector<size_t> slots;
  std::vector<std::span<float>> rows;
  std::vector<std::span<const float>> grads;

  void Clear() {
    slots.clear();
    rows.clear();
    grads.clear();
  }
  void Add(size_t slot, std::span<float> row, std::span<const float> grad) {
    slots.push_back(slot);
    rows.push_back(row);
    grads.push_back(grad);
  }
};

}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_ADAGRAD_H_

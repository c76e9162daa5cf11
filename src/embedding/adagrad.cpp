#include "embedding/adagrad.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "embedding/embedding_table.h"
#include "embedding/kernels.h"

namespace hetkg::embedding {

AdaGrad::AdaGrad(size_t num_rows, size_t dim, double learning_rate,
                 double epsilon)
    : dim_(dim),
      learning_rate_(learning_rate),
      epsilon_(epsilon),
      accum_(num_rows * dim, 0.0f) {
  assert(dim > 0);
  assert(learning_rate > 0.0);
  accum_data_ = accum_.data();
  accum_size_ = accum_.size();
}

Result<AdaGrad> AdaGrad::CreateTiered(size_t num_rows, size_t dim,
                                      double learning_rate,
                                      const TieredOptions& opts,
                                      const std::string& name,
                                      double epsilon) {
  if (!opts.enabled) {
    return AdaGrad(num_rows, dim, learning_rate, epsilon);
  }
  if (dim == 0 || learning_rate <= 0.0) {
    return Status::InvalidArgument("tiered optimizer " + name +
                                   ": bad dim/learning_rate");
  }
  HETKG_ASSIGN_OR_RETURN(
      MmapFile slab,
      MmapFile::Create(ColdSlabPath(opts.cold_dir, name),
                       num_rows * dim * sizeof(float)));
  AdaGrad opt;
  opt.dim_ = dim;
  opt.learning_rate_ = learning_rate;
  opt.epsilon_ = epsilon;
  opt.cold_ = std::move(slab);
  opt.accum_data_ = reinterpret_cast<float*>(opt.cold_.data());
  opt.accum_size_ = num_rows * dim;
  return opt;
}

void AdaGrad::ResetRow(size_t i) {
  float* acc = accum_data_ + i * dim_;
  std::fill(acc, acc + dim_, 0.0f);
}

void AdaGrad::Apply(size_t row_index, std::span<float> row,
                    std::span<const float> grad) {
  assert(row.size() == dim_);
  assert(grad.size() == dim_);
  float* acc = accum_data_ + row_index * dim_;
  for (size_t j = 0; j < dim_; ++j) {
    const double g = grad[j];
    acc[j] += static_cast<float>(g * g);
    row[j] -= static_cast<float>(learning_rate_ * g /
                                 std::sqrt(static_cast<double>(acc[j]) + epsilon_));
  }
}

void AdaGrad::ApplyBatch(size_t row_index, std::span<float> row,
                         std::span<const float> grad) {
  ApplyRows({&row_index, 1}, {&row, 1}, {&grad, 1}, /*normalize=*/false);
}

void AdaGrad::ApplyRows(std::span<const size_t> slots,
                        std::span<const std::span<float>> rows,
                        std::span<const std::span<const float>> grads,
                        bool normalize) {
  HETKG_CHECK(rows.size() == slots.size() && grads.size() == slots.size());
  const size_t rows_held = num_rows();
  for (size_t k = 0; k < slots.size(); ++k) {
    HETKG_CHECK(slots[k] < rows_held && rows[k].size() == dim_ &&
                grads[k].size() == dim_)
        << "AdaGrad row " << slots[k] << " out of shape";
  }
  if (kernels::AdaGradApplyRows(slots, rows, grads, accum_data_, dim_,
                                learning_rate_, epsilon_, normalize)) {
    return;
  }
  for (size_t k = 0; k < slots.size(); ++k) {
    Apply(slots[k], rows[k], grads[k]);
    if (normalize) NormalizeRowL2(rows[k]);
  }
}

}  // namespace hetkg::embedding

// Kernel-layer equivalence (DESIGN.md §10): the batched ScoreBatch /
// ScoreBackwardBatch / AdaGrad::ApplyBatch APIs must be BIT-identical
// to looping the scalar API, for every model and every --kernel
// setting, and the kernel paths must be bit-identical to each other —
// --kernel is a pure performance knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "embedding/kernels.h"
#include "embedding/score_function.h"
#include "graph/synthetic.h"

namespace hetkg {
namespace {

using embedding::GradView;
using embedding::ModelKind;
using embedding::ScoreFunction;
using embedding::TripleView;
namespace kernels = embedding::kernels;

/// Restores the process-wide kernel mode on scope exit, so tests can
/// flip dispatch without leaking state into other tests.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(kernels::KernelMode mode)
      : saved_(kernels::ActiveMode()) {
    kernels::SetKernelMode(mode);
  }
  ~ScopedKernelMode() { kernels::SetKernelMode(saved_); }

 private:
  kernels::KernelMode saved_;
};

constexpr ModelKind kAllModels[] = {
    ModelKind::kTransEL1, ModelKind::kTransEL2, ModelKind::kDistMult,
    ModelKind::kComplEx,  ModelKind::kTransH,   ModelKind::kTransR,
    ModelKind::kTransD,   ModelKind::kHolE,     ModelKind::kRescal,
};

bool RequiresEvenDim(ModelKind kind) {
  return kind == ModelKind::kComplEx || kind == ModelKind::kTransD;
}

/// A pool of entity/relation rows plus a positive and a mixed bag of
/// negatives (tail-corrupt sharing the positive's (h, r) rows — the
/// hoisted path — head-corrupt, relation-corrupt, and one self-loop
/// whose head and tail gradients alias the same row).
struct BatchFixture {
  size_t dim = 0;
  size_t rdim = 0;
  std::vector<float> entities;   // kNumEntities x dim
  std::vector<float> relations;  // kNumRelations x rdim
  TripleView positive;
  std::vector<TripleView> views;      // [0] = positive, [1..] negatives.
  std::vector<double> upstreams;      // [0] = positive's upstream.
  std::vector<size_t> head_keys;      // Entity index per view.
  std::vector<size_t> rel_keys;       // Relation index per view.
  std::vector<size_t> tail_keys;      // Entity index per view.

  static constexpr size_t kNumEntities = 12;
  static constexpr size_t kNumRelations = 4;

  std::span<const float> Entity(size_t e) const {
    return {entities.data() + e * dim, dim};
  }
  std::span<const float> Relation(size_t r) const {
    return {relations.data() + r * rdim, rdim};
  }
};

BatchFixture MakeFixture(const ScoreFunction& fn, size_t dim, uint64_t seed) {
  BatchFixture fx;
  fx.dim = dim;
  fx.rdim = fn.RelationDim(dim);
  Rng rng(seed);
  fx.entities.resize(BatchFixture::kNumEntities * dim);
  for (float& v : fx.entities) {
    v = static_cast<float>(rng.NextUniform(-0.8, 0.8));
  }
  fx.relations.resize(BatchFixture::kNumRelations * fx.rdim);
  for (float& v : fx.relations) {
    v = static_cast<float>(rng.NextUniform(-0.8, 0.8));
  }

  auto add = [&](size_t h, size_t r, size_t t, double upstream) {
    fx.views.push_back({fx.Entity(h), fx.Relation(r), fx.Entity(t)});
    fx.head_keys.push_back(h);
    fx.rel_keys.push_back(r);
    fx.tail_keys.push_back(t);
    fx.upstreams.push_back(upstream);
  };

  // Positive: (e0, r0, e1).
  add(0, 0, 1, rng.NextUniform(-1.0, 1.0));
  fx.positive = fx.views[0];
  // Tail-corrupt negatives (shared (h, r) → hoisted inside the kernel).
  for (size_t t : {2, 3, 4, 5, 6}) {
    add(0, 0, t, rng.NextUniform(-1.0, 1.0));
  }
  // One zero upstream on a tail-corrupt entry (must be skipped).
  add(0, 0, 7, 0.0);
  // Head-corrupt negatives (full vectorized form).
  for (size_t h : {8, 9, 10}) {
    add(h, 0, 1, rng.NextUniform(-1.0, 1.0));
  }
  // Relation-corrupt negative.
  add(0, 1, 1, rng.NextUniform(-1.0, 1.0));
  // Self-loop: head and tail gradients alias one row.
  add(11, 2, 11, rng.NextUniform(-1.0, 1.0));
  return fx;
}

/// Per-key gradient buffers for one full batch-backward application.
struct GradBuffers {
  std::vector<float> entities;
  std::vector<float> relations;

  explicit GradBuffers(const BatchFixture& fx)
      : entities(BatchFixture::kNumEntities * fx.dim, 0.0f),
        relations(BatchFixture::kNumRelations * fx.rdim, 0.0f) {}

  GradView View(const BatchFixture& fx, size_t k) {
    return {{entities.data() + fx.head_keys[k] * fx.dim, fx.dim},
            {relations.data() + fx.rel_keys[k] * fx.rdim, fx.rdim},
            {entities.data() + fx.tail_keys[k] * fx.dim, fx.dim}};
  }
};

std::vector<size_t> DimsFor(ModelKind kind) {
  // 30 and 64: even, one NOT a multiple of the lane width (8); 5 and
  // 19: odd (tail-loop coverage) where the model allows it.
  std::vector<size_t> dims = {8, 30, 64};
  if (!RequiresEvenDim(kind)) {
    dims.push_back(5);
    dims.push_back(19);
  }
  return dims;
}

/// Runs ScoreBatch + ScoreBackwardBatch under the CURRENT kernel mode
/// and checks both against the scalar per-triple loop, bitwise. Fills
/// `out` (scores, grads) so callers can also compare across modes.
/// (void so ASSERT_* may be used.)
struct BatchResult {
  std::vector<double> scores;
  std::vector<float> entity_grads;
  std::vector<float> relation_grads;
};

void RunAndCheckAgainstScalarLoop(const ScoreFunction& fn,
                                  const BatchFixture& fx, BatchResult* out) {
  kernels::KernelScratch scratch;

  // Forward: batch vs per-triple Score.
  out->scores.resize(fx.views.size());
  fn.ScoreBatch(fx.positive, fx.views, out->scores, &scratch);
  for (size_t k = 0; k < fx.views.size(); ++k) {
    const double expect =
        fn.Score(fx.views[k].h, fx.views[k].r, fx.views[k].t);
    ASSERT_EQ(out->scores[k], expect)
        << fn.name() << " dim=" << fx.dim << " view " << k;
  }

  // Backward: batch vs scalar loop, into separate buffers.
  GradBuffers batch_bufs(fx);
  GradBuffers loop_bufs(fx);
  std::vector<GradView> grad_views(fx.views.size());
  for (size_t k = 0; k < fx.views.size(); ++k) {
    // Entries with a zero upstream keep an empty GradView — the batch
    // contract says they are skipped and never dereferenced.
    if (fx.upstreams[k] != 0.0) grad_views[k] = batch_bufs.View(fx, k);
  }
  fn.ScoreBackwardBatch(fx.positive, fx.views, fx.upstreams, grad_views,
                        &scratch);
  for (size_t k = 0; k < fx.views.size(); ++k) {
    if (fx.upstreams[k] == 0.0) continue;
    const GradView g = loop_bufs.View(fx, k);
    fn.ScoreBackward(fx.views[k].h, fx.views[k].r, fx.views[k].t,
                     fx.upstreams[k], g.h, g.r, g.t);
  }
  ASSERT_EQ(batch_bufs.entities.size(), loop_bufs.entities.size());
  for (size_t j = 0; j < batch_bufs.entities.size(); ++j) {
    ASSERT_EQ(batch_bufs.entities[j], loop_bufs.entities[j])
        << fn.name() << " dim=" << fx.dim << " entity grad float " << j;
  }
  for (size_t j = 0; j < batch_bufs.relations.size(); ++j) {
    ASSERT_EQ(batch_bufs.relations[j], loop_bufs.relations[j])
        << fn.name() << " dim=" << fx.dim << " relation grad float " << j;
  }
  out->entity_grads = std::move(batch_bufs.entities);
  out->relation_grads = std::move(batch_bufs.relations);
}

TEST(KernelBatchEquivalenceTest, BatchMatchesScalarLoopOnEveryPath) {
  for (ModelKind kind : kAllModels) {
    for (size_t dim : DimsFor(kind)) {
      auto fn = embedding::MakeScoreFunction(kind, dim).value();
      const BatchFixture fx = MakeFixture(*fn, dim, 1000 + dim);

      std::optional<BatchResult> scalar_result;
      for (kernels::KernelMode mode :
           {kernels::KernelMode::kScalar, kernels::KernelMode::kVector}) {
        ScopedKernelMode scoped(mode);
        BatchResult result;
        RunAndCheckAgainstScalarLoop(*fn, fx, &result);
        if (::testing::Test::HasFatalFailure()) return;
        if (!scalar_result.has_value()) {
          scalar_result = result;
          continue;
        }
        // Across modes: scalar and vector paths produce the same bits.
        ASSERT_EQ(result.scores, scalar_result->scores)
            << fn->name() << " dim=" << dim;
        ASSERT_EQ(result.entity_grads, scalar_result->entity_grads)
            << fn->name() << " dim=" << dim;
        ASSERT_EQ(result.relation_grads, scalar_result->relation_grads)
            << fn->name() << " dim=" << dim;
      }
    }
  }
}

TEST(KernelEdgeCaseTest, EmptyNegativesAreANoOp) {
  for (kernels::KernelMode mode :
       {kernels::KernelMode::kScalar, kernels::KernelMode::kVector}) {
    ScopedKernelMode scoped(mode);
    for (ModelKind kind : kAllModels) {
      const size_t dim = 16;
      auto fn = embedding::MakeScoreFunction(kind, dim).value();
      const BatchFixture fx = MakeFixture(*fn, dim, 7);
      kernels::KernelScratch scratch;
      fn->ScoreBatch(fx.positive, {}, {}, &scratch);
      fn->ScoreBackwardBatch(fx.positive, {}, {}, {}, &scratch);
    }
  }
}

TEST(KernelEdgeCaseTest, TransEL2ZeroGradientAtExactMinimum) {
  // h == t elementwise and r == 0 put every e_j at exactly 0, where the
  // L2 gradient -e/||e|| is defined to be zero: no grads may change.
  const size_t dim = 24;
  auto fn =
      embedding::MakeScoreFunction(ModelKind::kTransEL2, dim).value();
  std::vector<float> h(dim);
  Rng rng(3);
  for (float& v : h) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  std::vector<float> r(dim, 0.0f);
  std::vector<float> t = h;

  for (kernels::KernelMode mode :
       {kernels::KernelMode::kScalar, kernels::KernelMode::kVector}) {
    ScopedKernelMode scoped(mode);
    const TripleView ref{h, r, t};
    const std::vector<TripleView> views = {ref};
    std::vector<double> scores(1);
    kernels::KernelScratch scratch;
    fn->ScoreBatch(ref, views, scores, &scratch);
    EXPECT_EQ(scores[0], 0.0) << kernels::KernelModeName(mode);

    std::vector<float> gh(dim, 0.0f), gr(dim, 0.0f), gt(dim, 0.0f);
    const std::vector<GradView> grads = {GradView{gh, gr, gt}};
    const std::vector<double> upstreams = {1.0};
    fn->ScoreBackwardBatch(ref, views, upstreams, grads, &scratch);
    for (size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(gh[j], 0.0f) << kernels::KernelModeName(mode);
      ASSERT_EQ(gr[j], 0.0f);
      ASSERT_EQ(gt[j], 0.0f);
    }
  }
}

TEST(KernelAdaGradTest, ApplyBatchBitIdenticalToApply) {
  for (size_t dim : {1u, 5u, 8u, 27u, 64u, 400u}) {
    Rng rng(40 + dim);
    const size_t kRows = 3;
    std::vector<float> init(kRows * dim);
    for (float& v : init) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));

    std::optional<std::vector<float>> first_rows;
    for (kernels::KernelMode mode :
         {kernels::KernelMode::kScalar, kernels::KernelMode::kVector}) {
      ScopedKernelMode scoped(mode);
      embedding::AdaGrad scalar_opt(kRows, dim, 0.1);
      embedding::AdaGrad batch_opt(kRows, dim, 0.1);
      std::vector<float> scalar_rows = init;
      std::vector<float> batch_rows = init;
      // Several steps so the accumulators are nontrivial.
      Rng grad_rng(99);
      for (int step = 0; step < 4; ++step) {
        for (size_t row = 0; row < kRows; ++row) {
          std::vector<float> grad(dim);
          for (float& g : grad) {
            g = static_cast<float>(grad_rng.NextUniform(-0.5, 0.5));
          }
          scalar_opt.Apply(row, {scalar_rows.data() + row * dim, dim}, grad);
          batch_opt.ApplyBatch(row, {batch_rows.data() + row * dim, dim},
                               grad);
        }
      }
      ASSERT_EQ(batch_rows, scalar_rows)
          << "dim=" << dim << " mode=" << kernels::KernelModeName(mode);
      for (size_t row = 0; row < kRows; ++row) {
        const auto a = scalar_opt.AccumulatorRow(row);
        const auto b = batch_opt.AccumulatorRow(row);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "dim=" << dim << " row=" << row;
      }
      if (!first_rows.has_value()) {
        first_rows = batch_rows;
      } else {
        ASSERT_EQ(batch_rows, *first_rows) << "dim=" << dim;
      }
    }
  }
}

// ---- Fused AdaGrad step + renormalize (AdaGrad::ApplyRows) ----------

/// Slot layout of the fused-step fixture. Every slot stresses one edge
/// of the step or of the renormalize.
enum FusedSlot : size_t {
  kRandomSlot,      // Random row, random gradient.
  kZeroGradSlot,    // Random row, all-zero gradient.
  kZeroRowSlot,     // All-zero row and gradient: norm 0, skipped.
  kTinySlot,        // Post-step norm far below 1e-12: skipped.
  kDenormalSlot,    // Denormal row/gradient entries beside normal ones.
  kAllDenormalSlot, // Only denormals: post-step norm below 1e-12.
  kAtFloorSlot,     // Norm float(1e-12), on the threshold.
  kAboveFloorSlot,  // Norm one float ulp above float(1e-12).
  kNumFusedSlots,
};

constexpr float kDenormal = 3.0e-40f;

std::vector<float> FusedInitRow(size_t slot, size_t dim, Rng* rng) {
  std::vector<float> row(dim, 0.0f);
  for (size_t j = 0; j < dim; ++j) {
    switch (slot) {
      case kRandomSlot:
      case kZeroGradSlot:
        row[j] = static_cast<float>(rng->NextUniform(-1.0, 1.0));
        break;
      case kTinySlot:
        row[j] = 1e-15f;
        break;
      case kDenormalSlot:
        row[j] = j == 0 ? 0.5f : (j % 2 == 0 ? kDenormal : -kDenormal);
        break;
      case kAllDenormalSlot:
        row[j] = j % 2 == 0 ? kDenormal : -kDenormal;
        break;
      case kAtFloorSlot:
        row[j] = j == 0 ? 1e-12f : 0.0f;
        break;
      case kAboveFloorSlot:
        row[j] = j == 0 ? std::nextafter(1e-12f, 1.0f) : 0.0f;
        break;
      default:
        break;
    }
  }
  return row;
}

std::vector<float> FusedGrad(size_t slot, size_t dim, Rng* rng) {
  std::vector<float> grad(dim, 0.0f);
  for (size_t j = 0; j < dim; ++j) {
    switch (slot) {
      case kRandomSlot:
        grad[j] = static_cast<float>(rng->NextUniform(-0.5, 0.5));
        break;
      case kDenormalSlot:
        grad[j] = j % 2 == 0
                      ? kDenormal
                      : static_cast<float>(rng->NextUniform(-0.5, 0.5));
        break;
      case kAllDenormalSlot:
        grad[j] = -kDenormal;
        break;
      default:
        break;  // Zero gradient.
    }
  }
  return grad;
}

/// How one run applies each batch of rows.
enum class FusedVariant {
  kApplyRows,          // One ApplyRows(normalize=true) call per batch.
  kApplyBatchThenL2,   // ApplyBatch, then EmbeddingTable::L2NormalizeRow.
  kApplyThenRowNorm,   // Scalar Apply, then RowNorm's scale by hand.
  kApplyRowsNoNorm,    // One ApplyRows(normalize=false) call per batch.
  kApplyNoNorm,        // Scalar Apply only.
};

struct FusedRun {
  std::vector<float> rows;
  std::vector<float> accum;
};

FusedRun RunFused(size_t dim, FusedVariant variant, kernels::KernelMode mode) {
  ScopedKernelMode scoped(mode);
  embedding::EmbeddingTable table(kNumFusedSlots, dim);
  embedding::AdaGrad opt(kNumFusedSlots, dim, 0.1);
  Rng init_rng(500 + dim);
  for (size_t slot = 0; slot < kNumFusedSlots; ++slot) {
    table.SetRow(slot, FusedInitRow(slot, dim, &init_rng));
  }
  // Every slot once, then the random slot again: a repeated slot must
  // step from its own earlier update within the batch.
  std::vector<size_t> slots;
  for (size_t slot = 0; slot < kNumFusedSlots; ++slot) slots.push_back(slot);
  slots.push_back(kRandomSlot);
  Rng grad_rng(77 + dim);
  for (int step = 0; step < 3; ++step) {
    std::vector<std::vector<float>> grads;
    for (size_t slot : slots) grads.push_back(FusedGrad(slot, dim, &grad_rng));
    std::vector<std::span<float>> rows;
    std::vector<std::span<const float>> grad_spans;
    for (size_t k = 0; k < slots.size(); ++k) {
      rows.push_back(table.Row(slots[k]));
      grad_spans.emplace_back(grads[k]);
    }
    switch (variant) {
      case FusedVariant::kApplyRows:
      case FusedVariant::kApplyRowsNoNorm:
        opt.ApplyRows(slots, rows, grad_spans,
                      variant == FusedVariant::kApplyRows);
        break;
      case FusedVariant::kApplyBatchThenL2:
        for (size_t k = 0; k < slots.size(); ++k) {
          opt.ApplyBatch(slots[k], rows[k], grad_spans[k]);
          table.L2NormalizeRow(slots[k]);
        }
        break;
      case FusedVariant::kApplyThenRowNorm:
      case FusedVariant::kApplyNoNorm:
        for (size_t k = 0; k < slots.size(); ++k) {
          opt.Apply(slots[k], rows[k], grad_spans[k]);
          if (variant == FusedVariant::kApplyNoNorm) continue;
          const double norm = embedding::RowNorm(rows[k]);
          if (norm <= 1e-12) continue;
          const float inv = static_cast<float>(1.0 / norm);
          for (float& v : rows[k]) v *= inv;
        }
        break;
    }
  }
  FusedRun run;
  for (size_t slot = 0; slot < kNumFusedSlots; ++slot) {
    const auto row = table.Row(slot);
    const auto acc = opt.AccumulatorRow(slot);
    run.rows.insert(run.rows.end(), row.begin(), row.end());
    run.accum.insert(run.accum.end(), acc.begin(), acc.end());
  }
  return run;
}

::testing::AssertionResult SameBits(const FusedRun& a, const FusedRun& b) {
  if (a.rows.size() != b.rows.size() || a.accum.size() != b.accum.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (std::memcmp(&a.rows[i], &b.rows[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "row float " << i << ": " << a.rows[i] << " vs " << b.rows[i];
    }
  }
  if (std::memcmp(a.accum.data(), b.accum.data(),
                  a.accum.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "accumulators differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(KernelAdaGradTest, FusedRowsBitIdentical) {
  constexpr kernels::KernelMode kScalar = kernels::KernelMode::kScalar;
  constexpr kernels::KernelMode kVector = kernels::KernelMode::kVector;
  for (size_t dim : {1u, 3u, 4u, 5u, 7u, 8u, 32u, 64u, 100u, 128u, 400u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const FusedRun fused = RunFused(dim, FusedVariant::kApplyRows, kVector);
    EXPECT_TRUE(SameBits(
        fused, RunFused(dim, FusedVariant::kApplyBatchThenL2, kVector)));
    EXPECT_TRUE(SameBits(
        fused, RunFused(dim, FusedVariant::kApplyThenRowNorm, kScalar)));
    EXPECT_TRUE(
        SameBits(fused, RunFused(dim, FusedVariant::kApplyRows, kScalar)));

    const FusedRun plain =
        RunFused(dim, FusedVariant::kApplyRowsNoNorm, kVector);
    EXPECT_TRUE(
        SameBits(plain, RunFused(dim, FusedVariant::kApplyNoNorm, kScalar)));
    EXPECT_TRUE(SameBits(
        plain, RunFused(dim, FusedVariant::kApplyRowsNoNorm, kScalar)));

    // The skip branch ran: the zero row is still zero.
    for (size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(fused.rows[kZeroRowSlot * dim + j], 0.0f);
    }
  }
}

TEST(KernelDispatchTest, ParseAndNames) {
  EXPECT_EQ(kernels::ParseKernelMode("auto").value(),
            kernels::KernelMode::kAuto);
  EXPECT_EQ(kernels::ParseKernelMode("scalar").value(),
            kernels::KernelMode::kScalar);
  EXPECT_EQ(kernels::ParseKernelMode("vector").value(),
            kernels::KernelMode::kVector);
  EXPECT_FALSE(kernels::ParseKernelMode("avx512").ok());
  EXPECT_EQ(kernels::KernelPathName(kernels::KernelPath::kScalar), "scalar");
  EXPECT_EQ(kernels::KernelPathName(kernels::KernelPath::kPortableVector),
            "portable-vector");
  EXPECT_EQ(kernels::KernelPathName(kernels::KernelPath::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ExplicitModeWinsGaugeTracksPath) {
  {
    ScopedKernelMode scoped(kernels::KernelMode::kScalar);
    EXPECT_EQ(kernels::ActivePath(), kernels::KernelPath::kScalar);
    EXPECT_FALSE(kernels::UseVectorPath());
    EXPECT_EQ(kernels::DispatchGauge(), 0.0);
  }
  {
    ScopedKernelMode scoped(kernels::KernelMode::kVector);
    EXPECT_NE(kernels::ActivePath(), kernels::KernelPath::kScalar);
    EXPECT_TRUE(kernels::UseVectorPath());
    EXPECT_EQ(kernels::DispatchGauge(),
              static_cast<double>(kernels::ActivePath()));
  }
}

TEST(KernelDispatchTest, EnvironmentSteersAutoOnly) {
  const char* saved = std::getenv("HETKG_KERNEL");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("HETKG_KERNEL", "scalar", 1);
  EXPECT_EQ(kernels::ResolveKernelPath(kernels::KernelMode::kAuto),
            kernels::KernelPath::kScalar);
  // Explicit modes ignore the environment (the equivalence tests rely
  // on this to force both paths under a CI-set HETKG_KERNEL).
  EXPECT_NE(kernels::ResolveKernelPath(kernels::KernelMode::kVector),
            kernels::KernelPath::kScalar);

  ::setenv("HETKG_KERNEL", "vector", 1);
  EXPECT_NE(kernels::ResolveKernelPath(kernels::KernelMode::kAuto),
            kernels::KernelPath::kScalar);
  EXPECT_EQ(kernels::ResolveKernelPath(kernels::KernelMode::kScalar),
            kernels::KernelPath::kScalar);

  // Unknown values fall back to the CPU-feature default.
  ::setenv("HETKG_KERNEL", "quantum", 1);
  EXPECT_NE(kernels::ResolveKernelPath(kernels::KernelMode::kAuto),
            kernels::KernelPath::kScalar);

  if (saved != nullptr) {
    ::setenv("HETKG_KERNEL", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HETKG_KERNEL");
  }
}

// ---------------------------------------------------------------------
// End-to-end: whole training runs must be bit-identical across
// --kernel settings (the training-level analogue of the unit checks).
// ---------------------------------------------------------------------

struct TrainOutput {
  std::vector<float> embeddings;
  std::vector<double> losses;
  std::vector<std::pair<std::string, uint64_t>> metrics;
};

TrainOutput TrainWithKernel(core::SystemKind system, ModelKind model,
                            const graph::SyntheticDataset& dataset,
                            const std::string& kernel) {
  core::TrainerConfig config;
  config.model = model;
  config.dim = 16;
  config.batch_size = 32;
  config.negatives_per_positive = 8;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.pbg_partitions = 4;
  config.seed = 5;
  config.num_threads = 2;
  config.kernel = kernel;
  auto engine =
      core::MakeEngine(system, config, dataset.graph, dataset.split.train)
          .value();
  auto report = engine->Train(2).value();

  TrainOutput out;
  const eval::EmbeddingLookup& lookup = engine->Embeddings();
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    const auto row = lookup.Entity(static_cast<EntityId>(e));
    out.embeddings.insert(out.embeddings.end(), row.begin(), row.end());
  }
  for (size_t r = 0; r < lookup.num_relations(); ++r) {
    const auto row = lookup.Relation(static_cast<RelationId>(r));
    out.embeddings.insert(out.embeddings.end(), row.begin(), row.end());
  }
  for (const auto& epoch : report.epochs) {
    out.losses.push_back(epoch.mean_loss);
  }
  out.metrics = report.metrics.Snapshot();
  return out;
}

TEST(KernelTrainingIdentityTest, BitIdenticalAcrossKernelSettings) {
  // Engine setup persists the configured mode process-wide; restore it.
  ScopedKernelMode scoped(kernels::ActiveMode());

  graph::SyntheticSpec spec;
  spec.name = "kernel-det";
  spec.num_entities = 200;
  spec.num_relations = 8;
  spec.num_triples = 2000;
  spec.seed = 33;
  const auto dataset = graph::GenerateDataset(spec).value();

  for (ModelKind model : {ModelKind::kTransEL1, ModelKind::kDistMult,
                          ModelKind::kComplEx}) {
    const TrainOutput scalar = TrainWithKernel(core::SystemKind::kHetKgDps,
                                               model, dataset, "scalar");
    ASSERT_FALSE(scalar.losses.empty());
    for (const std::string& kernel : {std::string("vector"),
                                      std::string("auto")}) {
      const TrainOutput other = TrainWithKernel(core::SystemKind::kHetKgDps,
                                                model, dataset, kernel);
      EXPECT_EQ(other.losses, scalar.losses)
          << embedding::ModelKindName(model) << " --kernel=" << kernel;
      EXPECT_EQ(other.metrics, scalar.metrics);
      ASSERT_EQ(other.embeddings.size(), scalar.embeddings.size());
      for (size_t j = 0; j < scalar.embeddings.size(); ++j) {
        ASSERT_EQ(other.embeddings[j], scalar.embeddings[j])
            << embedding::ModelKindName(model) << " embedding float " << j
            << " diverged under --kernel=" << kernel;
      }
    }
  }
}

}  // namespace
}  // namespace hetkg

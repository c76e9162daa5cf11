#ifndef HETKG_EMBEDDING_KERNELS_H_
#define HETKG_EMBEDDING_KERNELS_H_

// Batched, vectorized score/optimizer kernels with deterministic SIMD
// dispatch (DESIGN.md §10).
//
// Every kernel in this layer obeys one rule: the floating-point
// operation sequence — element expressions, lane mapping, and reduction
// tree — is FIXED, independent of which implementation executes it.
// Reductions accumulate into `kLaneWidth` partial lanes (element j goes
// to lane j % kLaneWidth) merged by `TreeReduce8`, and elementwise
// expressions keep one canonical association. The scalar per-triple
// API, the portable 8-wide batch kernels, and the AVX2 batch kernels
// therefore produce the same bits, so `--kernel` is a pure performance
// knob: training output is bit-identical across every dispatch path
// (enforced by tests/kernel_equivalence_test.cpp).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hetkg::embedding {

/// Embedding rows of one (h, r, t) triple. Spans alias the caller's row
/// storage; batched kernels detect rows shared with a reference triple
/// BY DATA POINTER to hoist shared query intermediates.
struct TripleView {
  std::span<const float> h;
  std::span<const float> r;
  std::span<const float> t;
};

/// Gradient rows matching a TripleView. Entries may be empty when the
/// corresponding upstream is zero (the kernel skips them).
struct GradView {
  std::span<float> h;
  std::span<float> r;
  std::span<float> t;
};

namespace kernels {

// -- Runtime dispatch --------------------------------------------------

/// User-facing kernel selection (`--kernel` flag / HETKG_KERNEL env).
enum class KernelMode {
  kAuto,    // Pick the fastest path; HETKG_KERNEL overrides.
  kScalar,  // Loop the scalar per-triple API (reference path).
  kVector,  // Batched 8-wide lane kernels (AVX2 when the CPU has it).
};

/// Resolved executable path. Gauge encoding (`kernel.dispatch`):
/// 0 = scalar, 1 = portable vector, 2 = AVX2.
enum class KernelPath {
  kScalar = 0,
  kPortableVector = 1,
  kAvx2 = 2,
};

/// Runtime-detected CPU SIMD features (x86 only; all-false elsewhere).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool f16c = false;  // Hardware fp32<->fp16 conversion (VCVTPH2PS).
  std::string ToString() const;
};
CpuFeatures DetectCpuFeatures();

/// Parses "auto" / "scalar" / "vector"; InvalidArgument otherwise.
Result<KernelMode> ParseKernelMode(std::string_view name);
std::string_view KernelModeName(KernelMode mode);
std::string_view KernelPathName(KernelPath path);

/// Resolves `mode` to an executable path. The HETKG_KERNEL environment
/// variable (same values as the flag) overrides kAuto only — explicit
/// `--kernel=scalar|vector` wins over the environment, which lets the
/// CI matrix steer default-configured binaries without re-plumbing.
KernelPath ResolveKernelPath(KernelMode mode);

/// Sets the process-wide dispatch. Because every path is bit-identical,
/// switching modes mid-process cannot change results — only speed.
void SetKernelMode(KernelMode mode);
KernelMode ActiveMode();
KernelPath ActivePath();

/// True when the batched kernels should take their vectorized paths.
bool UseVectorPath();

/// ActivePath() as a double, for the `kernel.dispatch` metric gauge.
double DispatchGauge();

/// The HETKG_KERNEL value observed by the most recent dispatch
/// resolution ("<unset>" when absent). The environment is read exactly
/// once per resolution; this snapshot is what the startup log reports,
/// so log and dispatch can never disagree.
std::string DispatchEnvSnapshot();

/// Logs detected CPU features + the chosen kernel path once per
/// process (engines call this at startup).
void LogDispatchOnce();

// -- Deterministic lane reduction --------------------------------------

/// Fixed accumulation width: element j of a reduction is accumulated
/// into lane j % kLaneWidth on every path (one AVX2 float vector).
inline constexpr size_t kLaneWidth = 8;

/// Canonical merge of the 8 partial lanes. The tree shape is part of
/// the determinism contract — every kernel path funnels through it.
inline double TreeReduce8(const double lane[kLaneWidth]) {
  const double s01 = lane[0] + lane[1];
  const double s23 = lane[2] + lane[3];
  const double s45 = lane[4] + lane[5];
  const double s67 = lane[6] + lane[7];
  return (s01 + s23) + (s45 + s67);
}

/// Reusable per-thread/per-chunk scratch for the hoisted query
/// intermediates (h+r, h∘r, the ComplEx (A, B) pair). Contents never
/// affect results; holding one per chunk amortizes allocations.
struct KernelScratch {
  std::vector<double> a;
  std::vector<double> b;
};

// -- Canonical per-triple kernels --------------------------------------
// The scalar ScoreFunction API of TransE/DistMult/ComplEx delegates
// here; these dispatch on ActivePath() like the batch entry points and
// define the canonical bits every other path must reproduce.

double TransEScore(int p, std::span<const float> h, std::span<const float> r,
                   std::span<const float> t);
void TransEScoreBackward(int p, std::span<const float> h,
                         std::span<const float> r, std::span<const float> t,
                         double upstream, std::span<float> gh,
                         std::span<float> gr, std::span<float> gt);

double DistMultScore(std::span<const float> h, std::span<const float> r,
                     std::span<const float> t);
void DistMultScoreBackward(std::span<const float> h, std::span<const float> r,
                           std::span<const float> t, double upstream,
                           std::span<float> gh, std::span<float> gr,
                           std::span<float> gt);

double ComplExScore(std::span<const float> h, std::span<const float> r,
                    std::span<const float> t);
void ComplExScoreBackward(std::span<const float> h, std::span<const float> r,
                          std::span<const float> t, double upstream,
                          std::span<float> gh, std::span<float> gr,
                          std::span<float> gt);

// -- Batched kernels ---------------------------------------------------
// Score `triples` (resp. accumulate their gradients) in one call.
// Triples sharing (h, r) with `ref` reuse a hoisted per-query
// intermediate; all others take the full vectorized form. Output is
// bit-identical to looping the per-triple kernels above, on every
// dispatch path. Backward applies entries in ascending index order and
// skips any k with upstreams[k] == 0 (its GradView may be empty).

void TransEScoreBatch(int p, const TripleView& ref,
                      std::span<const TripleView> triples,
                      std::span<double> scores, KernelScratch* scratch);
void TransEScoreBackwardBatch(int p, const TripleView& ref,
                              std::span<const TripleView> triples,
                              std::span<const double> upstreams,
                              std::span<const GradView> grads,
                              KernelScratch* scratch);

void DistMultScoreBatch(const TripleView& ref,
                        std::span<const TripleView> triples,
                        std::span<double> scores, KernelScratch* scratch);
void DistMultScoreBackwardBatch(const TripleView& ref,
                                std::span<const TripleView> triples,
                                std::span<const double> upstreams,
                                std::span<const GradView> grads,
                                KernelScratch* scratch);

void ComplExScoreBatch(const TripleView& ref,
                       std::span<const TripleView> triples,
                       std::span<double> scores, KernelScratch* scratch);
void ComplExScoreBackwardBatch(const TripleView& ref,
                               std::span<const TripleView> triples,
                               std::span<const double> upstreams,
                               std::span<const GradView> grads,
                               KernelScratch* scratch);

/// Fused AVX2 sparse-AdaGrad step over a batch of rows (DESIGN.md §10).
/// Row k is `rows[k]`, its gradient `grads[k]` and its accumulator the
/// `dim` floats at `acc + slots[k] * dim`; every span holds `dim`
/// floats. Per element, with g = double(grad[j]):
///   acc[j] += float(g*g);  row[j] -= float(lr * g / sqrt(acc[j] + eps))
/// and, with `normalize`, the updated row is then scaled by
/// float(1 / norm) unless norm <= 1e-12, where norm is the square root
/// of RowNorm's serial double sum (j = 0..dim-1, not TreeReduce8). The
/// sum is folded into the step loop and the next row's value and
/// accumulator lines are prefetched. Rows apply in index order, so a
/// repeated slot steps from its earlier update. sqrt, divide and the
/// double squares are IEEE-exact, so the bits equal AdaGrad::Apply
/// followed by EmbeddingTable::L2NormalizeRow. Returns false, touching
/// nothing, unless the active path is AVX2; the caller then runs the
/// scalar reference (AdaGrad::ApplyRows).
bool AdaGradApplyRows(std::span<const size_t> slots,
                      std::span<const std::span<float>> rows,
                      std::span<const std::span<const float>> grads,
                      float* acc, size_t dim, double learning_rate,
                      double epsilon, bool normalize);

// -- Cold-tier row codecs (DESIGN.md §16) ------------------------------
// The quantize-on-write-back / dequantize-on-pull primitives of the
// tiered embedding store (embedding/tiered_store.h). They follow the
// same contract as every other kernel here: the scalar loop and the
// AVX2/F16C path produce identical bits, so `--kernel` stays a pure
// performance knob even when cold rows round-trip through int8/fp16.
//
// fp16 is IEEE binary16 with round-to-nearest-even (the F16C hardware
// rounding); the scalar encoder reproduces the hardware bits exactly,
// including denormal and infinity handling. int8 is per-row affine:
//   scale = (max - min) / 255,  q[j] = rne((v[j] - min) / scale)
// stored alongside the row; decode is v = min + q * scale (explicit
// mul+add, never an FMA, so vector and scalar bits agree).

/// fp32 -> binary16 (RNE), one value. Exposed for tests.
uint16_t Fp16FromFloat(float v);
/// binary16 -> fp32, exact.
float Fp16ToFloat(uint16_t h);

/// Row encode/decode; `dst`/`src` hold src.size() halves.
void EncodeRowFp16(std::span<const float> src, uint16_t* dst);
void DecodeRowFp16(const uint16_t* src, std::span<float> dst);

/// Row encode: writes q[j] for all j and the row's (scale, min) affine
/// parameters. A constant row encodes as scale 0 (all q = 0).
void EncodeRowInt8(std::span<const float> src, uint8_t* q, float* scale,
                   float* min);
void DecodeRowInt8(const uint8_t* q, float scale, float min,
                   std::span<float> dst);

}  // namespace kernels
}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_KERNELS_H_

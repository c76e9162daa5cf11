#include "embedding/kernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/logging.h"

// The AVX2 kernels are compiled with per-function target attributes so
// the library still builds for (and runs on) baseline x86-64; dispatch
// picks them only when the CPU reports AVX2. Bit-identity with the
// portable lanes relies on every vector op being IEEE-exact (add, sub,
// mul, div, sqrt, cvt, and bitwise abs/sign games) and on FMA
// contraction being disabled project-wide (-ffp-contract=off): a fused
// multiply-add rounds once where the portable path rounds twice.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETKG_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace hetkg::embedding::kernels {

// ======================================================================
// Dispatch
// ======================================================================

namespace {

std::atomic<int> g_path{-1};  // -1 = not yet resolved.
std::atomic<int> g_mode{static_cast<int>(KernelMode::kAuto)};
std::once_flag g_log_once;

// HETKG_KERNEL is read exactly ONCE per dispatch resolution and the
// observed value cached here, so the startup log always reports the
// env string that actually steered the decision — never a second read
// that could disagree if the environment changed in between.
std::mutex g_env_mu;
std::string g_env_snapshot;
bool g_env_snapshot_set = false;

/// The single environment read feeding one dispatch resolution.
KernelMode SnapshotEnvOverride(KernelMode mode) {
  const char* env = std::getenv("HETKG_KERNEL");
  {
    std::lock_guard<std::mutex> lock(g_env_mu);
    g_env_snapshot_set = env != nullptr && *env != '\0';
    g_env_snapshot = g_env_snapshot_set ? env : "";
  }
  if (mode == KernelMode::kAuto && env != nullptr && *env != '\0') {
    if (const Result<KernelMode> parsed = ParseKernelMode(env); parsed.ok()) {
      mode = *parsed;
    }
  }
  return mode;
}

/// Pure mode -> path policy (no environment involved).
KernelPath PathForMode(KernelMode mode) {
  if (mode == KernelMode::kScalar) return KernelPath::kScalar;
#if HETKG_KERNELS_X86
  if (DetectCpuFeatures().avx2) return KernelPath::kAvx2;
#endif
  return KernelPath::kPortableVector;
}

}  // namespace

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if HETKG_KERNELS_X86
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.f16c = __builtin_cpu_supports("f16c") != 0;
#endif
  return f;
}

std::string CpuFeatures::ToString() const {
  std::string s;
  if (avx2) s += "avx2";
  if (fma) s += s.empty() ? "fma" : "+fma";
  if (f16c) s += s.empty() ? "f16c" : "+f16c";
  return s.empty() ? "none" : s;
}

Result<KernelMode> ParseKernelMode(std::string_view name) {
  if (name == "auto") return KernelMode::kAuto;
  if (name == "scalar") return KernelMode::kScalar;
  if (name == "vector") return KernelMode::kVector;
  return Status::InvalidArgument("unknown kernel mode: " + std::string(name) +
                                 " (want auto | scalar | vector)");
}

std::string_view KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kVector:
      return "vector";
  }
  return "unknown";
}

std::string_view KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kPortableVector:
      return "portable-vector";
    case KernelPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelPath ResolveKernelPath(KernelMode mode) {
  if (mode == KernelMode::kAuto) {
    if (const char* env = std::getenv("HETKG_KERNEL");
        env != nullptr && *env != '\0') {
      if (const Result<KernelMode> parsed = ParseKernelMode(env);
          parsed.ok()) {
        mode = *parsed;
      }
    }
  }
  return PathForMode(mode);
}

void SetKernelMode(KernelMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  g_path.store(static_cast<int>(PathForMode(SnapshotEnvOverride(mode))),
               std::memory_order_relaxed);
}

KernelMode ActiveMode() {
  return static_cast<KernelMode>(g_mode.load(std::memory_order_relaxed));
}

KernelPath ActivePath() {
  int p = g_path.load(std::memory_order_relaxed);
  if (p < 0) {
    p = static_cast<int>(PathForMode(SnapshotEnvOverride(KernelMode::kAuto)));
    g_path.store(p, std::memory_order_relaxed);
  }
  return static_cast<KernelPath>(p);
}

bool UseVectorPath() { return ActivePath() != KernelPath::kScalar; }

double DispatchGauge() { return static_cast<double>(ActivePath()); }

std::string DispatchEnvSnapshot() {
  std::lock_guard<std::mutex> lock(g_env_mu);
  return g_env_snapshot_set ? g_env_snapshot : "<unset>";
}

void LogDispatchOnce() {
  // Report the SAME env snapshot that steered the dispatch decision —
  // a second getenv here could disagree with the resolution if the
  // environment changed between the two reads.
  std::call_once(g_log_once, [] {
    HETKG_LOG(Info) << "kernel dispatch: path=" << KernelPathName(ActivePath())
                    << " (mode=" << KernelModeName(ActiveMode())
                    << ", cpu features: " << DetectCpuFeatures().ToString()
                    << ", HETKG_KERNEL=" << DispatchEnvSnapshot() << ")";
  });
}

// ======================================================================
// Primitives
// ======================================================================
//
// Naming: *Full takes raw (h, r, t) rows; *Hoisted takes the
// precomputed double-precision query intermediate instead of (h, r).
// Every reduction accumulates element j into lane j % kLaneWidth and
// merges through TreeReduce8, so the Full/Hoisted/portable/AVX2 forms
// of one expression are interchangeable at the bit level.

namespace {

// ---- TransE ----------------------------------------------------------
// Canonical element term: e_j = (double(h_j) + r_j) - t_j.
// Score: -sum |e| (L1) or -sqrt(sum e^2) (L2).

void TransEHoist(std::span<const float> h, std::span<const float> r,
                 std::vector<double>* hr) {
  const size_t n = h.size();
  if (hr->size() < n) hr->resize(n);
  const float* __restrict__ hp = h.data();
  const float* __restrict__ rp = r.data();
  double* __restrict__ out = hr->data();
  for (size_t j = 0; j < n; ++j) {
    out[j] = static_cast<double>(hp[j]) + rp[j];
  }
}

double TransEReduceFull(int p, const float* __restrict__ h,
                        const float* __restrict__ r,
                        const float* __restrict__ t, size_t n) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < n; ++j) {
    const double e = (static_cast<double>(h[j]) + r[j]) - t[j];
    lane[j % kLaneWidth] += p == 1 ? std::fabs(e) : e * e;
  }
  return TreeReduce8(lane);
}

double TransEReduceHoisted(int p, const double* __restrict__ hr,
                           const float* __restrict__ t, size_t n) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < n; ++j) {
    const double e = hr[j] - t[j];
    lane[j % kLaneWidth] += p == 1 ? std::fabs(e) : e * e;
  }
  return TreeReduce8(lane);
}

// Gradient application; coeff = -upstream (L1, multiplied by sign(e))
// or -upstream/||e|| (L2, multiplied by e). The three updates run in
// the same per-element order as the scalar API so aliased rows
// (self-loop triples where gh and gt are the same row) stay identical.
void TransEApplyFull(int p, double coeff, const float* h, const float* r,
                     const float* t, float* gh, float* gr, float* gt,
                     size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const double e = (static_cast<double>(h[j]) + r[j]) - t[j];
    const double v = p == 1 ? (e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0)) : e;
    const float g = static_cast<float>(coeff * v);
    gh[j] += g;
    gr[j] += g;
    gt[j] -= g;
  }
}

void TransEApplyHoisted(int p, double coeff, const double* hr, const float* t,
                        float* gh, float* gr, float* gt, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const double e = hr[j] - t[j];
    const double v = p == 1 ? (e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0)) : e;
    const float g = static_cast<float>(coeff * v);
    gh[j] += g;
    gr[j] += g;
    gt[j] -= g;
  }
}

#if HETKG_KERNELS_X86

__attribute__((target("avx2"))) inline __m256d CvtLo(__m256 f) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(f));
}
__attribute__((target("avx2"))) inline __m256d CvtHi(__m256 f) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1));
}

__attribute__((target("avx2"))) double TransEReduceFullAvx2(
    int p, const float* h, const float* r, const float* t, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 hf = _mm256_loadu_ps(h + j);
    const __m256 rf = _mm256_loadu_ps(r + j);
    const __m256 tf = _mm256_loadu_ps(t + j);
    const __m256d e0 =
        _mm256_sub_pd(_mm256_add_pd(CvtLo(hf), CvtLo(rf)), CvtLo(tf));
    const __m256d e1 =
        _mm256_sub_pd(_mm256_add_pd(CvtHi(hf), CvtHi(rf)), CvtHi(tf));
    if (p == 1) {
      acc0 = _mm256_add_pd(acc0, _mm256_and_pd(e0, abs_mask));
      acc1 = _mm256_add_pd(acc1, _mm256_and_pd(e1, abs_mask));
    } else {
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(e0, e0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(e1, e1));
    }
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < n; ++j, ++k) {
    const double e = (static_cast<double>(h[j]) + r[j]) - t[j];
    lane[k] += p == 1 ? std::fabs(e) : e * e;
  }
  return TreeReduce8(lane);
}

__attribute__((target("avx2"))) double TransEReduceHoistedAvx2(
    int p, const double* hr, const float* t, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 tf = _mm256_loadu_ps(t + j);
    const __m256d e0 = _mm256_sub_pd(_mm256_loadu_pd(hr + j), CvtLo(tf));
    const __m256d e1 = _mm256_sub_pd(_mm256_loadu_pd(hr + j + 4), CvtHi(tf));
    if (p == 1) {
      acc0 = _mm256_add_pd(acc0, _mm256_and_pd(e0, abs_mask));
      acc1 = _mm256_add_pd(acc1, _mm256_and_pd(e1, abs_mask));
    } else {
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(e0, e0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(e1, e1));
    }
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < n; ++j, ++k) {
    const double e = hr[j] - t[j];
    lane[k] += p == 1 ? std::fabs(e) : e * e;
  }
  return TreeReduce8(lane);
}

// sign(e) as (e > 0) - (e < 0) built from compare masks; multiplying by
// the exact constants {1.0, -1.0, 0.0} matches the scalar branches.
__attribute__((target("avx2"))) inline __m256d SignPd(__m256d e) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d pos =
      _mm256_and_pd(_mm256_cmp_pd(e, zero, _CMP_GT_OQ), one);
  const __m256d neg =
      _mm256_and_pd(_mm256_cmp_pd(zero, e, _CMP_GT_OQ), one);
  return _mm256_sub_pd(pos, neg);
}

__attribute__((target("avx2"))) void TransEApplyAvx2(
    int p, double coeff, const double* hr_or_null, const float* h,
    const float* r, const float* t, float* gh, float* gr, float* gt,
    size_t n) {
  const __m256d coeffv = _mm256_set1_pd(coeff);
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 tf = _mm256_loadu_ps(t + j);
    __m256d e0, e1;
    if (hr_or_null != nullptr) {
      e0 = _mm256_sub_pd(_mm256_loadu_pd(hr_or_null + j), CvtLo(tf));
      e1 = _mm256_sub_pd(_mm256_loadu_pd(hr_or_null + j + 4), CvtHi(tf));
    } else {
      const __m256 hf = _mm256_loadu_ps(h + j);
      const __m256 rf = _mm256_loadu_ps(r + j);
      e0 = _mm256_sub_pd(_mm256_add_pd(CvtLo(hf), CvtLo(rf)), CvtLo(tf));
      e1 = _mm256_sub_pd(_mm256_add_pd(CvtHi(hf), CvtHi(rf)), CvtHi(tf));
    }
    const __m256d v0 = p == 1 ? SignPd(e0) : e0;
    const __m256d v1 = p == 1 ? SignPd(e1) : e1;
    const __m128 g0 = _mm256_cvtpd_ps(_mm256_mul_pd(coeffv, v0));
    const __m128 g1 = _mm256_cvtpd_ps(_mm256_mul_pd(coeffv, v1));
    const __m256 g8 = _mm256_set_m128(g1, g0);
    _mm256_storeu_ps(gh + j, _mm256_add_ps(_mm256_loadu_ps(gh + j), g8));
    _mm256_storeu_ps(gr + j, _mm256_add_ps(_mm256_loadu_ps(gr + j), g8));
    _mm256_storeu_ps(gt + j, _mm256_sub_ps(_mm256_loadu_ps(gt + j), g8));
  }
  for (; j < n; ++j) {
    const double e = hr_or_null != nullptr
                         ? hr_or_null[j] - t[j]
                         : (static_cast<double>(h[j]) + r[j]) - t[j];
    const double v = p == 1 ? (e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0)) : e;
    const float g = static_cast<float>(coeff * v);
    gh[j] += g;
    gr[j] += g;
    gt[j] -= g;
  }
}

#endif  // HETKG_KERNELS_X86

double TransEReduceFullDispatch(int p, const float* h, const float* r,
                                const float* t, size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return TransEReduceFullAvx2(p, h, r, t, n);
  }
#endif
  return TransEReduceFull(p, h, r, t, n);
}

double TransEReduceHoistedDispatch(int p, const double* hr, const float* t,
                                   size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return TransEReduceHoistedAvx2(p, hr, t, n);
  }
#endif
  return TransEReduceHoisted(p, hr, t, n);
}

void TransEApplyDispatch(int p, double coeff, const double* hr_or_null,
                         const float* h, const float* r, const float* t,
                         float* gh, float* gr, float* gt, size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    TransEApplyAvx2(p, coeff, hr_or_null, h, r, t, gh, gr, gt, n);
    return;
  }
#endif
  if (hr_or_null != nullptr) {
    TransEApplyHoisted(p, coeff, hr_or_null, t, gh, gr, gt, n);
  } else {
    TransEApplyFull(p, coeff, h, r, t, gh, gr, gt, n);
  }
}

// ---- DistMult --------------------------------------------------------
// Canonical element term: (double(h_j) * r_j) * t_j.

void DistMultHoist(std::span<const float> h, std::span<const float> r,
                   std::vector<double>* hr) {
  const size_t n = h.size();
  if (hr->size() < n) hr->resize(n);
  const float* __restrict__ hp = h.data();
  const float* __restrict__ rp = r.data();
  double* __restrict__ out = hr->data();
  for (size_t j = 0; j < n; ++j) {
    out[j] = static_cast<double>(hp[j]) * rp[j];
  }
}

double DistMultReduceFull(const float* __restrict__ h,
                          const float* __restrict__ r,
                          const float* __restrict__ t, size_t n) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < n; ++j) {
    lane[j % kLaneWidth] += (static_cast<double>(h[j]) * r[j]) * t[j];
  }
  return TreeReduce8(lane);
}

double DistMultReduceHoisted(const double* __restrict__ hr,
                             const float* __restrict__ t, size_t n) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < n; ++j) {
    lane[j % kLaneWidth] += hr[j] * t[j];
  }
  return TreeReduce8(lane);
}

void DistMultApply(double upstream, const float* h, const float* r,
                   const float* t, float* gh, float* gr, float* gt,
                   size_t n) {
  for (size_t j = 0; j < n; ++j) {
    gh[j] += static_cast<float>((upstream * r[j]) * t[j]);
    gr[j] += static_cast<float>((upstream * h[j]) * t[j]);
    gt[j] += static_cast<float>((upstream * h[j]) * r[j]);
  }
}

#if HETKG_KERNELS_X86

__attribute__((target("avx2"))) double DistMultReduceFullAvx2(
    const float* h, const float* r, const float* t, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 hf = _mm256_loadu_ps(h + j);
    const __m256 rf = _mm256_loadu_ps(r + j);
    const __m256 tf = _mm256_loadu_ps(t + j);
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_mul_pd(CvtLo(hf), CvtLo(rf)), CvtLo(tf)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_mul_pd(CvtHi(hf), CvtHi(rf)), CvtHi(tf)));
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < n; ++j, ++k) {
    lane[k] += (static_cast<double>(h[j]) * r[j]) * t[j];
  }
  return TreeReduce8(lane);
}

__attribute__((target("avx2"))) double DistMultReduceHoistedAvx2(
    const double* hr, const float* t, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 tf = _mm256_loadu_ps(t + j);
    acc0 = _mm256_add_pd(acc0,
                         _mm256_mul_pd(_mm256_loadu_pd(hr + j), CvtLo(tf)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(hr + j + 4), CvtHi(tf)));
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < n; ++j, ++k) {
    lane[k] += hr[j] * t[j];
  }
  return TreeReduce8(lane);
}

__attribute__((target("avx2"))) void DistMultApplyAvx2(
    double upstream, const float* h, const float* r, const float* t,
    float* gh, float* gr, float* gt, size_t n) {
  const __m256d uv = _mm256_set1_pd(upstream);
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    const __m256 hf = _mm256_loadu_ps(h + j);
    const __m256 rf = _mm256_loadu_ps(r + j);
    const __m256 tf = _mm256_loadu_ps(t + j);
    const __m256d h0 = CvtLo(hf), h1 = CvtHi(hf);
    const __m256d r0 = CvtLo(rf), r1 = CvtHi(rf);
    const __m256d t0 = CvtLo(tf), t1 = CvtHi(tf);
    const __m256 ghd = _mm256_set_m128(
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, r1), t1)),
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, r0), t0)));
    const __m256 grd = _mm256_set_m128(
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, h1), t1)),
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, h0), t0)));
    const __m256 gtd = _mm256_set_m128(
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, h1), r1)),
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(uv, h0), r0)));
    _mm256_storeu_ps(gh + j, _mm256_add_ps(_mm256_loadu_ps(gh + j), ghd));
    _mm256_storeu_ps(gr + j, _mm256_add_ps(_mm256_loadu_ps(gr + j), grd));
    _mm256_storeu_ps(gt + j, _mm256_add_ps(_mm256_loadu_ps(gt + j), gtd));
  }
  for (; j < n; ++j) {
    gh[j] += static_cast<float>((upstream * r[j]) * t[j]);
    gr[j] += static_cast<float>((upstream * h[j]) * t[j]);
    gt[j] += static_cast<float>((upstream * h[j]) * r[j]);
  }
}

#endif  // HETKG_KERNELS_X86

double DistMultReduceFullDispatch(const float* h, const float* r,
                                  const float* t, size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return DistMultReduceFullAvx2(h, r, t, n);
  }
#endif
  return DistMultReduceFull(h, r, t, n);
}

double DistMultReduceHoistedDispatch(const double* hr, const float* t,
                                     size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return DistMultReduceHoistedAvx2(hr, t, n);
  }
#endif
  return DistMultReduceHoisted(hr, t, n);
}

void DistMultApplyDispatch(double upstream, const float* h, const float* r,
                           const float* t, float* gh, float* gr, float* gt,
                           size_t n) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    DistMultApplyAvx2(upstream, h, r, t, gh, gr, gt, n);
    return;
  }
#endif
  DistMultApply(upstream, h, r, t, gh, gr, gt, n);
}

// ---- ComplEx ---------------------------------------------------------
// Rows store [real; imag] halves of length m = dim/2. Canonical score
// term groups by the tail (the h∘r complex product):
//   A_j = (double(hRe_j) * rRe_j) - (double(hIm_j) * rIm_j)
//   B_j = (double(hIm_j) * rRe_j) + (double(hRe_j) * rIm_j)
//   term_j = (A_j * tRe_j) + (B_j * tIm_j)

void ComplExHoist(std::span<const float> h, std::span<const float> r,
                  std::vector<double>* a, std::vector<double>* b) {
  const size_t m = h.size() / 2;
  if (a->size() < m) a->resize(m);
  if (b->size() < m) b->resize(m);
  const float* __restrict__ hre = h.data();
  const float* __restrict__ him = h.data() + m;
  const float* __restrict__ rre = r.data();
  const float* __restrict__ rim = r.data() + m;
  double* __restrict__ A = a->data();
  double* __restrict__ B = b->data();
  for (size_t j = 0; j < m; ++j) {
    A[j] = (static_cast<double>(hre[j]) * rre[j]) -
           (static_cast<double>(him[j]) * rim[j]);
    B[j] = (static_cast<double>(him[j]) * rre[j]) +
           (static_cast<double>(hre[j]) * rim[j]);
  }
}

double ComplExReduceFull(const float* __restrict__ hre,
                         const float* __restrict__ him,
                         const float* __restrict__ rre,
                         const float* __restrict__ rim,
                         const float* __restrict__ tre,
                         const float* __restrict__ tim, size_t m) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < m; ++j) {
    const double a = (static_cast<double>(hre[j]) * rre[j]) -
                     (static_cast<double>(him[j]) * rim[j]);
    const double b = (static_cast<double>(him[j]) * rre[j]) +
                     (static_cast<double>(hre[j]) * rim[j]);
    lane[j % kLaneWidth] += (a * tre[j]) + (b * tim[j]);
  }
  return TreeReduce8(lane);
}

double ComplExReduceHoisted(const double* __restrict__ A,
                            const double* __restrict__ B,
                            const float* __restrict__ tre,
                            const float* __restrict__ tim, size_t m) {
  double lane[kLaneWidth] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t j = 0; j < m; ++j) {
    lane[j % kLaneWidth] += (A[j] * tre[j]) + (B[j] * tim[j]);
  }
  return TreeReduce8(lane);
}

// Backward keeps the scalar API's single-precision expression trees.
void ComplExApply(float u, const float* hre, const float* him,
                  const float* rre, const float* rim, const float* tre,
                  const float* tim, float* ghre, float* ghim, float* grre,
                  float* grim, float* gtre, float* gtim, size_t m) {
  for (size_t j = 0; j < m; ++j) {
    ghre[j] += u * (rre[j] * tre[j] + rim[j] * tim[j]);
    ghim[j] += u * (rre[j] * tim[j] - rim[j] * tre[j]);
    grre[j] += u * (hre[j] * tre[j] + him[j] * tim[j]);
    grim[j] += u * (hre[j] * tim[j] - him[j] * tre[j]);
    gtre[j] += u * (hre[j] * rre[j] - him[j] * rim[j]);
    gtim[j] += u * (him[j] * rre[j] + hre[j] * rim[j]);
  }
}

#if HETKG_KERNELS_X86

__attribute__((target("avx2"))) double ComplExReduceFullAvx2(
    const float* hre, const float* him, const float* rre, const float* rim,
    const float* tre, const float* tim, size_t m) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + kLaneWidth <= m; j += kLaneWidth) {
    const __m256 href = _mm256_loadu_ps(hre + j);
    const __m256 himf = _mm256_loadu_ps(him + j);
    const __m256 rref = _mm256_loadu_ps(rre + j);
    const __m256 rimf = _mm256_loadu_ps(rim + j);
    const __m256 tref = _mm256_loadu_ps(tre + j);
    const __m256 timf = _mm256_loadu_ps(tim + j);
    const __m256d a0 =
        _mm256_sub_pd(_mm256_mul_pd(CvtLo(href), CvtLo(rref)),
                      _mm256_mul_pd(CvtLo(himf), CvtLo(rimf)));
    const __m256d a1 =
        _mm256_sub_pd(_mm256_mul_pd(CvtHi(href), CvtHi(rref)),
                      _mm256_mul_pd(CvtHi(himf), CvtHi(rimf)));
    const __m256d b0 =
        _mm256_add_pd(_mm256_mul_pd(CvtLo(himf), CvtLo(rref)),
                      _mm256_mul_pd(CvtLo(href), CvtLo(rimf)));
    const __m256d b1 =
        _mm256_add_pd(_mm256_mul_pd(CvtHi(himf), CvtHi(rref)),
                      _mm256_mul_pd(CvtHi(href), CvtHi(rimf)));
    acc0 = _mm256_add_pd(
        acc0, _mm256_add_pd(_mm256_mul_pd(a0, CvtLo(tref)),
                            _mm256_mul_pd(b0, CvtLo(timf))));
    acc1 = _mm256_add_pd(
        acc1, _mm256_add_pd(_mm256_mul_pd(a1, CvtHi(tref)),
                            _mm256_mul_pd(b1, CvtHi(timf))));
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < m; ++j, ++k) {
    const double a = (static_cast<double>(hre[j]) * rre[j]) -
                     (static_cast<double>(him[j]) * rim[j]);
    const double b = (static_cast<double>(him[j]) * rre[j]) +
                     (static_cast<double>(hre[j]) * rim[j]);
    lane[k] += (a * tre[j]) + (b * tim[j]);
  }
  return TreeReduce8(lane);
}

__attribute__((target("avx2"))) double ComplExReduceHoistedAvx2(
    const double* A, const double* B, const float* tre, const float* tim,
    size_t m) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + kLaneWidth <= m; j += kLaneWidth) {
    const __m256 tref = _mm256_loadu_ps(tre + j);
    const __m256 timf = _mm256_loadu_ps(tim + j);
    acc0 = _mm256_add_pd(
        acc0,
        _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(A + j), CvtLo(tref)),
                      _mm256_mul_pd(_mm256_loadu_pd(B + j), CvtLo(timf))));
    acc1 = _mm256_add_pd(
        acc1,
        _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(A + j + 4), CvtHi(tref)),
                      _mm256_mul_pd(_mm256_loadu_pd(B + j + 4), CvtHi(timf))));
  }
  double lane[kLaneWidth];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t k = 0; j < m; ++j, ++k) {
    lane[k] += (A[j] * tre[j]) + (B[j] * tim[j]);
  }
  return TreeReduce8(lane);
}

__attribute__((target("avx2"))) void ComplExApplyAvx2(
    float u, const float* hre, const float* him, const float* rre,
    const float* rim, const float* tre, const float* tim, float* ghre,
    float* ghim, float* grre, float* grim, float* gtre, float* gtim,
    size_t m) {
  const __m256 uv = _mm256_set1_ps(u);
  size_t j = 0;
  for (; j + kLaneWidth <= m; j += kLaneWidth) {
    const __m256 href = _mm256_loadu_ps(hre + j);
    const __m256 himf = _mm256_loadu_ps(him + j);
    const __m256 rref = _mm256_loadu_ps(rre + j);
    const __m256 rimf = _mm256_loadu_ps(rim + j);
    const __m256 tref = _mm256_loadu_ps(tre + j);
    const __m256 timf = _mm256_loadu_ps(tim + j);
    _mm256_storeu_ps(
        ghre + j,
        _mm256_add_ps(_mm256_loadu_ps(ghre + j),
                      _mm256_mul_ps(uv, _mm256_add_ps(
                                            _mm256_mul_ps(rref, tref),
                                            _mm256_mul_ps(rimf, timf)))));
    _mm256_storeu_ps(
        ghim + j,
        _mm256_add_ps(_mm256_loadu_ps(ghim + j),
                      _mm256_mul_ps(uv, _mm256_sub_ps(
                                            _mm256_mul_ps(rref, timf),
                                            _mm256_mul_ps(rimf, tref)))));
    _mm256_storeu_ps(
        grre + j,
        _mm256_add_ps(_mm256_loadu_ps(grre + j),
                      _mm256_mul_ps(uv, _mm256_add_ps(
                                            _mm256_mul_ps(href, tref),
                                            _mm256_mul_ps(himf, timf)))));
    _mm256_storeu_ps(
        grim + j,
        _mm256_add_ps(_mm256_loadu_ps(grim + j),
                      _mm256_mul_ps(uv, _mm256_sub_ps(
                                            _mm256_mul_ps(href, timf),
                                            _mm256_mul_ps(himf, tref)))));
    _mm256_storeu_ps(
        gtre + j,
        _mm256_add_ps(_mm256_loadu_ps(gtre + j),
                      _mm256_mul_ps(uv, _mm256_sub_ps(
                                            _mm256_mul_ps(href, rref),
                                            _mm256_mul_ps(himf, rimf)))));
    _mm256_storeu_ps(
        gtim + j,
        _mm256_add_ps(_mm256_loadu_ps(gtim + j),
                      _mm256_mul_ps(uv, _mm256_add_ps(
                                            _mm256_mul_ps(himf, rref),
                                            _mm256_mul_ps(href, rimf)))));
  }
  for (; j < m; ++j) {
    ghre[j] += u * (rre[j] * tre[j] + rim[j] * tim[j]);
    ghim[j] += u * (rre[j] * tim[j] - rim[j] * tre[j]);
    grre[j] += u * (hre[j] * tre[j] + him[j] * tim[j]);
    grim[j] += u * (hre[j] * tim[j] - him[j] * tre[j]);
    gtre[j] += u * (hre[j] * rre[j] - him[j] * rim[j]);
    gtim[j] += u * (him[j] * rre[j] + hre[j] * rim[j]);
  }
}

#endif  // HETKG_KERNELS_X86

double ComplExReduceFullDispatch(const float* hre, const float* him,
                                 const float* rre, const float* rim,
                                 const float* tre, const float* tim,
                                 size_t m) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return ComplExReduceFullAvx2(hre, him, rre, rim, tre, tim, m);
  }
#endif
  return ComplExReduceFull(hre, him, rre, rim, tre, tim, m);
}

double ComplExReduceHoistedDispatch(const double* A, const double* B,
                                    const float* tre, const float* tim,
                                    size_t m) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    return ComplExReduceHoistedAvx2(A, B, tre, tim, m);
  }
#endif
  return ComplExReduceHoisted(A, B, tre, tim, m);
}

void ComplExApplyDispatch(float u, const float* hre, const float* him,
                          const float* rre, const float* rim,
                          const float* tre, const float* tim, float* ghre,
                          float* ghim, float* grre, float* grim, float* gtre,
                          float* gtim, size_t m) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    ComplExApplyAvx2(u, hre, him, rre, rim, tre, tim, ghre, ghim, grre, grim,
                     gtre, gtim, m);
    return;
  }
#endif
  ComplExApply(u, hre, him, rre, rim, tre, tim, ghre, ghim, grre, grim, gtre,
               gtim, m);
}

/// True when `v` can reuse a query intermediate hoisted from `ref`
/// (same head and relation ROWS — detected by storage identity, which
/// is exact because both alias the same batch scratch).
bool SharesQuery(const TripleView& v, const TripleView& ref) {
  return v.h.data() == ref.h.data() && v.r.data() == ref.r.data();
}

}  // namespace

// ======================================================================
// Canonical per-triple kernels (the scalar ScoreFunction API)
// ======================================================================

double TransEScore(int p, std::span<const float> h, std::span<const float> r,
                   std::span<const float> t) {
  assert(h.size() == r.size() && h.size() == t.size());
  const double acc = TransEReduceFullDispatch(p, h.data(), r.data(), t.data(),
                                              h.size());
  return p == 1 ? -acc : -std::sqrt(acc);
}

void TransEScoreBackward(int p, std::span<const float> h,
                         std::span<const float> r, std::span<const float> t,
                         double upstream, std::span<float> gh,
                         std::span<float> gr, std::span<float> gt) {
  assert(h.size() == r.size() && h.size() == t.size());
  assert(gh.size() == h.size() && gr.size() == r.size() &&
         gt.size() == t.size());
  const size_t n = h.size();
  if (p == 1) {
    // d(-|e|_1)/de_i = -sign(e_i).
    TransEApplyDispatch(1, -upstream, nullptr, h.data(), r.data(), t.data(),
                        gh.data(), gr.data(), gt.data(), n);
    return;
  }
  // d(-||e||_2)/de_i = -e_i / ||e||_2.
  const double norm =
      std::sqrt(TransEReduceFullDispatch(2, h.data(), r.data(), t.data(), n));
  if (norm <= 1e-12) return;  // Gradient is zero at the exact minimum.
  TransEApplyDispatch(2, -upstream / norm, nullptr, h.data(), r.data(),
                      t.data(), gh.data(), gr.data(), gt.data(), n);
}

double DistMultScore(std::span<const float> h, std::span<const float> r,
                     std::span<const float> t) {
  assert(h.size() == r.size() && h.size() == t.size());
  return DistMultReduceFullDispatch(h.data(), r.data(), t.data(), h.size());
}

void DistMultScoreBackward(std::span<const float> h, std::span<const float> r,
                           std::span<const float> t, double upstream,
                           std::span<float> gh, std::span<float> gr,
                           std::span<float> gt) {
  assert(h.size() == r.size() && h.size() == t.size());
  DistMultApplyDispatch(upstream, h.data(), r.data(), t.data(), gh.data(),
                        gr.data(), gt.data(), h.size());
}

double ComplExScore(std::span<const float> h, std::span<const float> r,
                    std::span<const float> t) {
  assert(h.size() % 2 == 0);
  assert(h.size() == r.size() && h.size() == t.size());
  const size_t m = h.size() / 2;
  return ComplExReduceFullDispatch(h.data(), h.data() + m, r.data(),
                                   r.data() + m, t.data(), t.data() + m, m);
}

void ComplExScoreBackward(std::span<const float> h, std::span<const float> r,
                          std::span<const float> t, double upstream,
                          std::span<float> gh, std::span<float> gr,
                          std::span<float> gt) {
  assert(h.size() % 2 == 0);
  const size_t m = h.size() / 2;
  ComplExApplyDispatch(static_cast<float>(upstream), h.data(), h.data() + m,
                       r.data(), r.data() + m, t.data(), t.data() + m,
                       gh.data(), gh.data() + m, gr.data(), gr.data() + m,
                       gt.data(), gt.data() + m, m);
}

// ======================================================================
// Batched kernels
// ======================================================================

void TransEScoreBatch(int p, const TripleView& ref,
                      std::span<const TripleView> triples,
                      std::span<double> scores, KernelScratch* scratch) {
  assert(scores.size() == triples.size());
  if (!UseVectorPath() || scratch == nullptr) {
    for (size_t k = 0; k < triples.size(); ++k) {
      scores[k] = TransEScore(p, triples[k].h, triples[k].r, triples[k].t);
    }
    return;
  }
  bool hoisted = false;
  for (size_t k = 0; k < triples.size(); ++k) {
    const TripleView& v = triples[k];
    const size_t n = v.h.size();
    double acc;
    if (SharesQuery(v, ref)) {
      if (!hoisted) {
        TransEHoist(ref.h, ref.r, &scratch->a);
        hoisted = true;
      }
      acc = TransEReduceHoistedDispatch(p, scratch->a.data(), v.t.data(), n);
    } else {
      acc = TransEReduceFullDispatch(p, v.h.data(), v.r.data(), v.t.data(), n);
    }
    scores[k] = p == 1 ? -acc : -std::sqrt(acc);
  }
}

void TransEScoreBackwardBatch(int p, const TripleView& ref,
                              std::span<const TripleView> triples,
                              std::span<const double> upstreams,
                              std::span<const GradView> grads,
                              KernelScratch* scratch) {
  assert(upstreams.size() == triples.size() &&
         grads.size() == triples.size());
  if (!UseVectorPath() || scratch == nullptr) {
    for (size_t k = 0; k < triples.size(); ++k) {
      if (upstreams[k] == 0.0) continue;
      TransEScoreBackward(p, triples[k].h, triples[k].r, triples[k].t,
                          upstreams[k], grads[k].h, grads[k].r, grads[k].t);
    }
    return;
  }
  bool hoisted = false;
  for (size_t k = 0; k < triples.size(); ++k) {
    if (upstreams[k] == 0.0) continue;
    const TripleView& v = triples[k];
    const GradView& g = grads[k];
    const size_t n = v.h.size();
    const double* hr = nullptr;
    if (SharesQuery(v, ref)) {
      if (!hoisted) {
        TransEHoist(ref.h, ref.r, &scratch->a);
        hoisted = true;
      }
      hr = scratch->a.data();
    }
    if (p == 1) {
      TransEApplyDispatch(1, -upstreams[k], hr, v.h.data(), v.r.data(),
                          v.t.data(), g.h.data(), g.r.data(), g.t.data(), n);
      continue;
    }
    const double norm = std::sqrt(
        hr != nullptr
            ? TransEReduceHoistedDispatch(2, hr, v.t.data(), n)
            : TransEReduceFullDispatch(2, v.h.data(), v.r.data(), v.t.data(),
                                       n));
    if (norm <= 1e-12) continue;  // Zero gradient at the exact minimum.
    TransEApplyDispatch(2, -upstreams[k] / norm, hr, v.h.data(), v.r.data(),
                        v.t.data(), g.h.data(), g.r.data(), g.t.data(), n);
  }
}

void DistMultScoreBatch(const TripleView& ref,
                        std::span<const TripleView> triples,
                        std::span<double> scores, KernelScratch* scratch) {
  assert(scores.size() == triples.size());
  if (!UseVectorPath() || scratch == nullptr) {
    for (size_t k = 0; k < triples.size(); ++k) {
      scores[k] = DistMultScore(triples[k].h, triples[k].r, triples[k].t);
    }
    return;
  }
  bool hoisted = false;
  for (size_t k = 0; k < triples.size(); ++k) {
    const TripleView& v = triples[k];
    const size_t n = v.h.size();
    if (SharesQuery(v, ref)) {
      if (!hoisted) {
        DistMultHoist(ref.h, ref.r, &scratch->a);
        hoisted = true;
      }
      scores[k] =
          DistMultReduceHoistedDispatch(scratch->a.data(), v.t.data(), n);
    } else {
      scores[k] =
          DistMultReduceFullDispatch(v.h.data(), v.r.data(), v.t.data(), n);
    }
  }
}

void DistMultScoreBackwardBatch(const TripleView& ref,
                                std::span<const TripleView> triples,
                                std::span<const double> upstreams,
                                std::span<const GradView> grads,
                                KernelScratch* scratch) {
  (void)ref;
  (void)scratch;
  assert(upstreams.size() == triples.size() &&
         grads.size() == triples.size());
  // The DistMult gradient has no reusable (h, r) intermediate under the
  // canonical association; each entry takes the vectorized full form.
  for (size_t k = 0; k < triples.size(); ++k) {
    if (upstreams[k] == 0.0) continue;
    const TripleView& v = triples[k];
    const GradView& g = grads[k];
    DistMultApplyDispatch(upstreams[k], v.h.data(), v.r.data(), v.t.data(),
                          g.h.data(), g.r.data(), g.t.data(), v.h.size());
  }
}

void ComplExScoreBatch(const TripleView& ref,
                       std::span<const TripleView> triples,
                       std::span<double> scores, KernelScratch* scratch) {
  assert(scores.size() == triples.size());
  if (!UseVectorPath() || scratch == nullptr) {
    for (size_t k = 0; k < triples.size(); ++k) {
      scores[k] = ComplExScore(triples[k].h, triples[k].r, triples[k].t);
    }
    return;
  }
  bool hoisted = false;
  for (size_t k = 0; k < triples.size(); ++k) {
    const TripleView& v = triples[k];
    const size_t m = v.h.size() / 2;
    if (SharesQuery(v, ref)) {
      if (!hoisted) {
        ComplExHoist(ref.h, ref.r, &scratch->a, &scratch->b);
        hoisted = true;
      }
      scores[k] =
          ComplExReduceHoistedDispatch(scratch->a.data(), scratch->b.data(),
                                       v.t.data(), v.t.data() + m, m);
    } else {
      scores[k] = ComplExReduceFullDispatch(v.h.data(), v.h.data() + m,
                                            v.r.data(), v.r.data() + m,
                                            v.t.data(), v.t.data() + m, m);
    }
  }
}

void ComplExScoreBackwardBatch(const TripleView& ref,
                               std::span<const TripleView> triples,
                               std::span<const double> upstreams,
                               std::span<const GradView> grads,
                               KernelScratch* scratch) {
  (void)ref;
  (void)scratch;
  assert(upstreams.size() == triples.size() &&
         grads.size() == triples.size());
  // Backward keeps the scalar API's float expression trees; there is no
  // double-precision intermediate to reuse.
  for (size_t k = 0; k < triples.size(); ++k) {
    if (upstreams[k] == 0.0) continue;
    const TripleView& v = triples[k];
    const GradView& g = grads[k];
    const size_t m = v.h.size() / 2;
    ComplExApplyDispatch(static_cast<float>(upstreams[k]), v.h.data(),
                         v.h.data() + m, v.r.data(), v.r.data() + m,
                         v.t.data(), v.t.data() + m, g.h.data(),
                         g.h.data() + m, g.r.data(), g.r.data() + m,
                         g.t.data(), g.t.data() + m, m);
  }
}

// ======================================================================
// AdaGrad
// ======================================================================

#if HETKG_KERNELS_X86

namespace {

/// Prefetches every cache line of `bytes` bytes starting at `p`.
__attribute__((target("avx2"))) inline void PrefetchSpan(const void* p,
                                                         size_t bytes) {
  const char* c = static_cast<const char*>(p);
  for (size_t off = 0; off < bytes; off += 64) {
    _mm_prefetch(c + off, _MM_HINT_T0);
  }
  _mm_prefetch(c + bytes - 1, _MM_HINT_T0);
}

// IEEE sqrt and divide are correctly rounded, so the step is
// bit-identical to AdaGrad::Apply; no rsqrt approximation is allowed.
// The renormalize keeps RowNorm's serial add order: each updated float
// is squared in double (exact) and added to one scalar `sum` in
// j order, so the sum and float(1 / norm) are RowNorm's bits, which
// TreeReduce8's lane order would not give. The chain waits only on its
// own element's step, so its latency mostly overlaps the divider work
// of the next elements.
template <bool kNormalize>
__attribute__((target("avx2"))) void AdaGradApplyRowsAvx2(
    const size_t* slots, const std::span<float>* rows,
    const std::span<const float>* grads, size_t count, float* acc_base,
    size_t n, double lr, double eps) {
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  const size_t row_bytes = n * sizeof(float);
  for (size_t k = 0; k < count; ++k) {
    if (k + 1 < count) {
      PrefetchSpan(rows[k + 1].data(), row_bytes);
      PrefetchSpan(acc_base + slots[k + 1] * n, row_bytes);
    }
    float* row = rows[k].data();
    const float* grad = grads[k].data();
    float* acc = acc_base + slots[k] * n;
    double sum = 0.0;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + j));
      const __m128 gg = _mm256_cvtpd_ps(_mm256_mul_pd(g, g));
      const __m128 acc_new = _mm_add_ps(_mm_loadu_ps(acc + j), gg);
      _mm_storeu_ps(acc + j, acc_new);
      const __m256d denom =
          _mm256_sqrt_pd(_mm256_add_pd(_mm256_cvtps_pd(acc_new), epsv));
      const __m256d step = _mm256_div_pd(_mm256_mul_pd(lrv, g), denom);
      const __m128 updated =
          _mm_sub_ps(_mm_loadu_ps(row + j), _mm256_cvtpd_ps(step));
      _mm_storeu_ps(row + j, updated);
      if constexpr (kNormalize) {
        const __m256d v = _mm256_cvtps_pd(updated);
        alignas(32) double sq[4];
        _mm256_store_pd(sq, _mm256_mul_pd(v, v));
        sum += sq[0];
        sum += sq[1];
        sum += sq[2];
        sum += sq[3];
      }
    }
    for (; j < n; ++j) {
      const double g = grad[j];
      acc[j] += static_cast<float>(g * g);
      row[j] -= static_cast<float>(
          lr * g / std::sqrt(static_cast<double>(acc[j]) + eps));
      if constexpr (kNormalize) sum += static_cast<double>(row[j]) * row[j];
    }
    if constexpr (kNormalize) {
      const double norm = std::sqrt(sum);
      if (norm <= 1e-12) continue;
      const float inv = static_cast<float>(1.0 / norm);
      const __m256 invv = _mm256_set1_ps(inv);
      j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(row + j,
                         _mm256_mul_ps(_mm256_loadu_ps(row + j), invv));
      }
      for (; j < n; ++j) row[j] *= inv;
    }
  }
}

}  // namespace

#endif  // HETKG_KERNELS_X86

bool AdaGradApplyRows(std::span<const size_t> slots,
                      std::span<const std::span<float>> rows,
                      std::span<const std::span<const float>> grads,
                      float* acc, size_t dim, double learning_rate,
                      double epsilon, bool normalize) {
#if HETKG_KERNELS_X86
  if (ActivePath() != KernelPath::kAvx2) return false;
  assert(rows.size() == slots.size() && grads.size() == slots.size());
  if (normalize) {
    AdaGradApplyRowsAvx2<true>(slots.data(), rows.data(), grads.data(),
                               slots.size(), acc, dim, learning_rate,
                               epsilon);
  } else {
    AdaGradApplyRowsAvx2<false>(slots.data(), rows.data(), grads.data(),
                                slots.size(), acc, dim, learning_rate,
                                epsilon);
  }
  return true;
#else
  (void)slots, (void)rows, (void)grads, (void)acc, (void)dim;
  (void)learning_rate, (void)epsilon, (void)normalize;
  return false;
#endif
}

// ======================================================================
// Cold-tier row codecs (DESIGN.md §16)
// ======================================================================

namespace {

// Scalar fp32 -> binary16 with round-to-nearest-even, bit-exact with
// the F16C VCVTPS2PH(_MM_FROUND_TO_NEAREST_INT) hardware conversion:
// NaN/Inf map to their half encodings, overflow saturates to Inf, and
// values below the half-normal range round into (or out of) the
// denormal encodings via the same shifted-RNE arithmetic.
uint16_t Fp16FromFloatScalar(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t abs = bits & 0x7FFFFFFFu;
  if (abs >= 0x7F800000u) {  // Inf / NaN.
    const uint32_t mantissa = abs > 0x7F800000u ? 0x0200u : 0;
    return static_cast<uint16_t>(sign | 0x7C00u | mantissa |
                                 ((abs >> 13) & 0x03FFu));
  }
  if (abs >= 0x47800000u) {  // >= 65536: overflows half, saturate to Inf.
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // Below half-normal: denormal or zero.
    // Add the implicit bit, then shift right so the result's ULP is the
    // half-denormal ULP (2^-24); RNE on the shifted-out bits.
    const uint32_t mantissa = (abs & 0x007FFFFFu) | 0x00800000u;
    const int shift = 126 - static_cast<int>(abs >> 23);
    if (shift > 24) return static_cast<uint16_t>(sign);  // Rounds to 0.
    const uint32_t shifted = mantissa >> shift;
    const uint32_t rest = mantissa & ((1u << shift) - 1);
    const uint32_t half = 1u << (shift - 1);
    uint32_t q = shifted;
    if (rest > half || (rest == half && (shifted & 1))) ++q;
    return static_cast<uint16_t>(sign | q);
  }
  // Normal range: rebias exponent (127 -> 15), RNE on the low 13 bits.
  uint32_t half_bits = sign | ((abs - 0x38000000u) >> 13);
  const uint32_t rest = abs & 0x1FFFu;
  if (rest > 0x1000u || (rest == 0x1000u && (half_bits & 1))) ++half_bits;
  return static_cast<uint16_t>(half_bits);
}

float Fp16ToFloatScalar(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  const uint32_t mantissa = h & 0x03FFu;
  uint32_t bits;
  if (exp == 0x1Fu) {  // Inf / NaN.
    bits = sign | 0x7F800000u | (mantissa << 13);
  } else if (exp != 0) {  // Normal.
    bits = sign | ((exp + 112u) << 23) | (mantissa << 13);
  } else if (mantissa != 0) {  // Denormal: renormalize.
    uint32_t m = mantissa;
    uint32_t e = 113;
    while ((m & 0x0400u) == 0) {
      m <<= 1;
      --e;
    }
    bits = sign | (e << 23) | ((m & 0x03FFu) << 13);
  } else {  // Zero.
    bits = sign;
  }
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

#if HETKG_KERNELS_X86

__attribute__((target("f16c"))) void EncodeRowFp16F16c(const float* src,
                                                       uint16_t* dst,
                                                       size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(src + j);
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), h);
  }
  for (; j < n; ++j) dst[j] = Fp16FromFloatScalar(src[j]);
}

__attribute__((target("f16c"))) void DecodeRowFp16F16c(const uint16_t* src,
                                                       float* dst,
                                                       size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
    _mm256_storeu_ps(dst + j, _mm256_cvtph_ps(h));
  }
  for (; j < n; ++j) dst[j] = Fp16ToFloatScalar(src[j]);
}

// int8 quantize: t = (v - min) * inv; q = clamp(rne(t), 0, 255).
// CVTPS2DQ rounds RNE under the default MXCSR mode, matching the scalar
// lrintf; sub and mul are IEEE-exact, so both paths emit the same q.
__attribute__((target("avx2"))) void EncodeRowInt8Avx2(const float* src,
                                                       uint8_t* q, float min,
                                                       float inv, size_t n) {
  const __m256 vmin = _mm256_set1_ps(min);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(255);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(src + j), vmin), vinv);
    __m256i qi = _mm256_cvtps_epi32(t);
    qi = _mm256_min_epi32(_mm256_max_epi32(qi, lo), hi);
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), qi);
    for (int k = 0; k < 8; ++k) q[j + k] = static_cast<uint8_t>(lanes[k]);
  }
  for (; j < n; ++j) {
    const float t = (src[j] - min) * inv;
    long v = std::lrintf(t);
    if (v < 0) v = 0;
    if (v > 255) v = 255;
    q[j] = static_cast<uint8_t>(v);
  }
}

// int8 dequantize: v = min + q * scale, explicit mul then add (never an
// FMA) so the bits match the scalar loop under -ffp-contract=off.
__attribute__((target("avx2"))) void DecodeRowInt8Avx2(const uint8_t* q,
                                                       float scale, float min,
                                                       float* dst, size_t n) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vmin = _mm256_set1_ps(min);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j));
    const __m256 t = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    _mm256_storeu_ps(dst + j,
                     _mm256_add_ps(_mm256_mul_ps(t, vscale), vmin));
  }
  for (; j < n; ++j) {
    dst[j] = static_cast<float>(q[j]) * scale + min;
  }
}

/// F16C rides the vector dispatch: available on every AVX2 part this
/// project targets, but gated independently for odd configurations.
bool UseF16c() {
  return ActivePath() == KernelPath::kAvx2 && DetectCpuFeatures().f16c;
}

#endif  // HETKG_KERNELS_X86

}  // namespace

uint16_t Fp16FromFloat(float v) { return Fp16FromFloatScalar(v); }

float Fp16ToFloat(uint16_t h) { return Fp16ToFloatScalar(h); }

void EncodeRowFp16(std::span<const float> src, uint16_t* dst) {
#if HETKG_KERNELS_X86
  if (UseF16c()) {
    EncodeRowFp16F16c(src.data(), dst, src.size());
    return;
  }
#endif
  for (size_t j = 0; j < src.size(); ++j) dst[j] = Fp16FromFloatScalar(src[j]);
}

void DecodeRowFp16(const uint16_t* src, std::span<float> dst) {
#if HETKG_KERNELS_X86
  if (UseF16c()) {
    DecodeRowFp16F16c(src, dst.data(), dst.size());
    return;
  }
#endif
  for (size_t j = 0; j < dst.size(); ++j) dst[j] = Fp16ToFloatScalar(src[j]);
}

void EncodeRowInt8(std::span<const float> src, uint8_t* q, float* scale,
                   float* min) {
  assert(!src.empty());
  // Range scan stays scalar on every path: it costs one pass, and a
  // vectorized min/max would have to reproduce scalar NaN semantics to
  // keep the (scale, min) bits identical.
  float lo = src[0];
  float hi = src[0];
  for (const float v : src) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float range = hi - lo;
  *min = lo;
  if (!(range > 0.0f)) {  // Constant row (or NaN range): all-zero codes.
    *scale = 0.0f;
    std::memset(q, 0, src.size());
    return;
  }
  *scale = range / 255.0f;
  const float inv = 255.0f / range;
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    EncodeRowInt8Avx2(src.data(), q, lo, inv, src.size());
    return;
  }
#endif
  for (size_t j = 0; j < src.size(); ++j) {
    const float t = (src[j] - lo) * inv;
    long v = std::lrintf(t);
    if (v < 0) v = 0;
    if (v > 255) v = 255;
    q[j] = static_cast<uint8_t>(v);
  }
}

void DecodeRowInt8(const uint8_t* q, float scale, float min,
                   std::span<float> dst) {
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    DecodeRowInt8Avx2(q, scale, min, dst.data(), dst.size());
    return;
  }
#endif
  for (size_t j = 0; j < dst.size(); ++j) {
    dst[j] = static_cast<float>(q[j]) * scale + min;
  }
}

}  // namespace hetkg::embedding::kernels

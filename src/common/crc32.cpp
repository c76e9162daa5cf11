#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETKG_CRC32_X86 1
#include <immintrin.h>
#endif

namespace hetkg {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if HETKG_CRC32_X86

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries lane `x` forward by the distance `k` encodes and adds the
/// lane `next` found there: x.lo * k.lo ^ x.hi * k.hi ^ next.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the running
/// CRC state `crc`. The constants are the bit-reflected x^n mod P
/// values of the Intel paper for P = 0x104C11DB7: k1/k2 carry a lane
/// 512 bits forward, k3/k4 128 bits, k5 narrows 64 bits to 32, and
/// P'/mu drive the Barrett reduction.
__attribute__((target("pclmul"))) uint32_t FoldPclmul(
    uint32_t crc, const unsigned char* buf, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load(buf), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(buf + 16);
  __m128i x3 = Load(buf + 32);
  __m128i x4 = Load(buf + 48);
  buf += 64;
  size -= 64;

  // Four lanes, 64 bytes per step.
  while (size >= 64) {
    x1 = Fold(x1, k1k2, Load(buf));
    x2 = Fold(x2, k1k2, Load(buf + 16));
    x3 = Fold(x3, k1k2, Load(buf + 32));
    x4 = Fold(x4, k1k2, Load(buf + 48));
    buf += 64;
    size -= 64;
  }

  // Four lanes into one, then 16 bytes per step.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  while (size >= 16) {
    x1 = Fold(x1, k3k4, Load(buf));
    buf += 16;
    size -= 16;
  }

  // 128 bits to 64, then 64 to 32 (the low word times k5).
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif  // HETKG_CRC32_X86

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32UpdateTable(uint32_t crc, const void* data, size_t size) {
  const auto& table = Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

bool Crc32UsesPclmul() {
#if HETKG_CRC32_X86
  static const bool pclmul = __builtin_cpu_supports("pclmul") != 0;
  return pclmul;
#else
  return false;
#endif
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if HETKG_CRC32_X86
  if (size >= 64 && Crc32UsesPclmul()) {
    const size_t folded = size & ~size_t{15};
    crc = FoldPclmul(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return Crc32UpdateTable(crc, bytes, size);
}

uint32_t Crc32Finish(uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finish(Crc32Update(Crc32Init(), data, size));
}

}  // namespace hetkg

// CRC-32 (common/crc32.h): known answers, the dispatched Crc32Update
// against the byte-table reference and an independent bit-at-a-time
// reference at every length, alignment and initial state that reaches
// each stage of the PCLMULQDQ fold, and chaining at every cut point.
// Named Kernel* so the kernel subset (and every sanitizer row that runs
// it) covers the folded path. Buffers are allocated at their exact size
// so AddressSanitizer flags any read past the end.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"

namespace hetkg {
namespace {

/// One bit per step, straight from the reflected polynomial.
uint32_t BitwiseUpdate(uint32_t crc, const unsigned char* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc;
}

/// `size` random bytes at offset `offset` of an exact-size heap block.
std::unique_ptr<unsigned char[]> RandomBlock(Rng* rng, size_t offset,
                                             size_t size) {
  auto block = std::make_unique<unsigned char[]>(offset + size);
  for (size_t i = 0; i < offset + size; ++i) {
    block[i] = static_cast<unsigned char>(rng->NextUint64());
  }
  return block;
}

TEST(KernelCrc32, KnownAnswers) {
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  // Long enough to take the folded path where it exists.
  const std::string fox =
      "The quick brown fox jumps over the lazy dog. "
      "The quick brown fox jumps over the lazy dog.";
  ASSERT_GE(fox.size(), 64u);
  const auto* fox_bytes = reinterpret_cast<const unsigned char*>(fox.data());
  EXPECT_EQ(Crc32(fox.data(), fox.size()),
            Crc32Finish(BitwiseUpdate(Crc32Init(), fox_bytes, fox.size())));
}

TEST(KernelCrc32, MatchesReferencesAtEveryLengthAndOffset) {
  Rng rng(0xC3C3);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t size = 0; size <= 1100; ++size) {
      const auto block = RandomBlock(&rng, offset, size);
      const unsigned char* data = block.get() + offset;
      const uint32_t init = static_cast<uint32_t>(rng.NextUint64());
      const uint32_t got = Crc32Update(init, data, size);
      ASSERT_EQ(got, Crc32UpdateTable(init, data, size))
          << "offset " << offset << " size " << size;
      ASSERT_EQ(got, BitwiseUpdate(init, data, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(KernelCrc32, ChainedAtEveryCutEqualsOneShot) {
  Rng rng(0x5EED);
  for (const size_t size :
       {size_t{63}, size_t{64}, size_t{200}, size_t{1029}}) {
    const auto block = RandomBlock(&rng, 0, size);
    const uint32_t one_shot = Crc32(block.get(), size);
    for (size_t cut = 0; cut <= size; ++cut) {
      uint32_t crc = Crc32Init();
      crc = Crc32Update(crc, block.get(), cut);
      crc = Crc32Update(crc, block.get() + cut, size - cut);
      ASSERT_EQ(Crc32Finish(crc), one_shot)
          << "size " << size << " cut " << cut;
    }
  }
}

// Fold-specific: long inputs (many 64-byte steps, then every count of
// trailing 16-byte steps and tail bytes) and extreme initial states.
TEST(KernelCrc32, FoldMatchesTableOnLongInputs) {
  if (!Crc32UsesPclmul()) GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  Rng rng(0xF01D);
  for (size_t size = 4096; size < 4096 + 64 + 16; ++size) {
    const auto block = RandomBlock(&rng, 0, size);
    for (const uint32_t init : {0x00000000u, 0xFFFFFFFFu, 0x80000001u}) {
      ASSERT_EQ(Crc32Update(init, block.get(), size),
                Crc32UpdateTable(init, block.get(), size))
          << "size " << size << " init " << init;
    }
  }
  // One multi-MiB buffer, the scale of a checkpoint container.
  const size_t big = (size_t{3} << 20) + 7;
  const auto block = RandomBlock(&rng, 0, big);
  EXPECT_EQ(Crc32(block.get(), big),
            Crc32Finish(Crc32UpdateTable(Crc32Init(), block.get(), big)));
}

TEST(KernelCrc32, FoldDetectsEverySingleBitFlip) {
  if (!Crc32UsesPclmul()) GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  Rng rng(0xB17);
  const size_t size = 300;
  const auto block = RandomBlock(&rng, 0, size);
  const uint32_t clean = Crc32(block.get(), size);
  for (size_t bit = 0; bit < size * 8; ++bit) {
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(Crc32(block.get(), size), clean) << "bit " << bit;
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace hetkg

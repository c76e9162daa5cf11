#ifndef HETKG_COMMON_CRC32_H_
#define HETKG_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hetkg {

/// IEEE CRC-32 (reflected polynomial 0xEDB88320, the zlib/PNG variant)
/// over every proc wire frame, checkpoint container and cold sidecar.
/// Detects any single-byte corruption of a payload, unlike the
/// order-sensitive XOR fold the HETKGCK1 format used (which a pair of
/// compensating flips could defeat).
///
/// On x86-64 CPUs with PCLMULQDQ (chosen once per process by CPU
/// feature, independent of --kernel), inputs of 64 bytes or more are
/// folded 64 bytes per step in four 128-bit carry-less-multiply lanes,
/// narrowed to one lane, folded 16 bytes at a time and Barrett-reduced
/// to 32 bits (Intel, "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ"; the method zlib and Linux use). The last <16
/// bytes, short inputs and CPUs without PCLMULQDQ take the byte-at-a-
/// time table loop, Crc32UpdateTable, which is also the reference the
/// fold is tested against. Both produce the same value for every input,
/// so the bytes on disk and on the wire do not depend on the CPU.
///
/// `Crc32(data, size)` checksums one buffer; the Update form chains
/// over multiple buffers:
///   uint32_t crc = Crc32Init();
///   crc = Crc32Update(crc, a, na);
///   crc = Crc32Update(crc, b, nb);
///   crc = Crc32Finish(crc);
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);
uint32_t Crc32Finish(uint32_t crc);
uint32_t Crc32(const void* data, size_t size);

/// The scalar reference: one table lookup per byte, same chaining
/// contract as Crc32Update.
uint32_t Crc32UpdateTable(uint32_t crc, const void* data, size_t size);

/// True when Crc32Update folds with PCLMULQDQ on this CPU.
bool Crc32UsesPclmul();

}  // namespace hetkg

#endif  // HETKG_COMMON_CRC32_H_

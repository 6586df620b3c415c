// CRC-32C (Castagnoli) checksum protecting on-disk pages against
// corruption, verified on every page read.
#ifndef OPT_UTIL_CRC32_H_
#define OPT_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace opt {

/// Computes CRC-32C of `data[0..n)` with an initial value of `crc`
/// (pass 0 for a fresh checksum). Uses the SSE4.2 `crc32` instruction
/// when the CPU has it (checked once), slicing-by-8 tables otherwise.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

/// The two implementations behind Crc32c, exposed so tests can hold the
/// hardware path to the portable one. Crc32cHardware may only be called
/// when Crc32cHardwareSupported() is true.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n);
bool Crc32cHardwareSupported();

}  // namespace opt

#endif  // OPT_UTIL_CRC32_H_

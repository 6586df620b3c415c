#include "util/crc32.h"

namespace opt {

namespace {

// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
struct Crc32cTable {
  uint32_t table[8][256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78U : 0);
      }
      table[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        table[k][i] =
            (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32cTable& GetTable() {
  static const Crc32cTable t;
  return t;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto& t = GetTable().table;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // 8 bytes at a time (slicing-by-8).
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc ^= static_cast<uint32_t>(word);
    const uint32_t high = static_cast<uint32_t>(word >> 32);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][crc >> 24] ^
          t[3][high & 0xFF] ^ t[2][(high >> 8) & 0xFF] ^
          t[1][(high >> 16) & 0xFF] ^ t[0][high >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 by attribute, so the build needs no -msse4.2 and
// the rest of the binary still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  while (n >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = __builtin_ia32_crc32qi(c32, *p++);
  return ~c32;
}

bool Crc32cHardwareSupported() {
  static const bool supported = [] {
    __builtin_cpu_init();  // the check may run before libgcc's own init
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}

#else

uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n) {
  return Crc32cPortable(crc, data, n);
}

bool Crc32cHardwareSupported() { return false; }

#endif

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  return Crc32cHardwareSupported() ? Crc32cHardware(crc, data, n)
                                   : Crc32cPortable(crc, data, n);
}

}  // namespace opt

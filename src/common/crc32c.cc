#include "common/crc32c.h"

#include <array>

namespace spine {

// True when crc32c_sse42.cc was compiled with SSE4.2 codegen;
// Crc32cHardwareSupported() requires it in addition to the cpuid check.
bool Crc32cSse42Compiled();

namespace {

// Table for the reflected Castagnoli polynomial, built once at startup.
struct Crc32cTable {
  std::array<uint32_t, 256> entries;

  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82f63b78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t state, const void* data, size_t n) {
  const auto& table = Table().entries;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    state = table[(state ^ bytes[i]) & 0xff] ^ (state >> 8);
  }
  return state;
}

bool Crc32cHardwareSupported() {
#if defined(__x86_64__)
  return Crc32cSse42Compiled() && __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

uint32_t Crc32cExtend(uint32_t state, const void* data, size_t n) {
  static const auto extend = Crc32cHardwareSupported() ? Crc32cExtendHardware
                                                       : Crc32cExtendTable;
  return extend(state, data, n);
}

}  // namespace spine

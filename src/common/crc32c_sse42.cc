// CRC32C with the SSE4.2 `crc32` instruction: one 8-byte word per
// step, then the tail a byte at a time. This translation unit is
// compiled with -msse4.2 (when the compiler supports it; otherwise
// crc32c.cc reports the instruction unsupported) and is reachable only
// after the cpuid check in crc32c.cc confirms SSE4.2. Loads never touch
// a byte past data + n.

#include "common/crc32c.h"

#if defined(__x86_64__) && defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

namespace spine {

uint32_t Crc32cExtendHardware(uint32_t state, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  state = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}

bool Crc32cSse42Compiled() { return true; }

}  // namespace spine

#else

// No SSE4.2 codegen for this TU: keep the symbols defined so crc32c.cc
// links; Crc32cSse42Compiled() == false makes Crc32cHardwareSupported()
// report false, so this stub is unreachable through dispatch.
namespace spine {

uint32_t Crc32cExtendHardware(uint32_t state, const void* data, size_t n) {
  return Crc32cExtendTable(state, data, n);
}

bool Crc32cSse42Compiled() { return false; }

}  // namespace spine

#endif  // __x86_64__ && __SSE4_2__

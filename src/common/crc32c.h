// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78):
// the checksum guarding every storage-layer artifact — page payloads,
// the page-file superblock, serialized index images and metadata
// sidecars. CRC32C detects all single-bit and all 2-bit errors within
// a page, which is exactly the failure class the fault-injection
// harness exercises (torn pages, silent flips).
//
// Two implementations with bit-identical results. Where cpuid reports
// SSE4.2, Crc32cExtend runs the `crc32` instruction 8 bytes per step
// (crc32c_sse42.cc): 36 MiB in 7.6-8.3 ms, ~4.6 GB/s, on a 4-vCPU
// x86-64 VM. Elsewhere it runs a byte-at-a-time table loop: 117 ms
// for the same 36 MiB, ~0.32 GB/s. The table loop is also the tests'
// reference. The choice is made once, on first use.

#ifndef SPINE_COMMON_CRC32C_H_
#define SPINE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace spine {

// Extends a running CRC32C over `n` more bytes. Start from
// kCrc32cInit, finish with Crc32cFinish (the usual xor-out pattern so
// partial checksums can be chained).
inline constexpr uint32_t kCrc32cInit = 0xffffffffu;

uint32_t Crc32cExtend(uint32_t state, const void* data, size_t n);

inline uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xffffffffu; }

// One-shot convenience: checksum of a single buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data, n));
}

// The two implementations Crc32cExtend chooses between, callable
// directly so tests can hold one to the other. Crc32cExtendHardware
// may run only where Crc32cHardwareSupported() is true.
uint32_t Crc32cExtendTable(uint32_t state, const void* data, size_t n);
uint32_t Crc32cExtendHardware(uint32_t state, const void* data, size_t n);
bool Crc32cHardwareSupported();

// Size and CRC32C of a whole file, as a shard manifest records them.
struct FileChecksum {
  uint64_t size = 0;
  uint32_t crc = 0;
};

}  // namespace spine

#endif  // SPINE_COMMON_CRC32C_H_

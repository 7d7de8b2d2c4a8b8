#ifndef SUDAF_COMMON_CRC32C_H_
#define SUDAF_COMMON_CRC32C_H_

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by the cache persistence layer to detect torn and
// bit-rotted records (docs/robustness.md). On x86-64 CPUs with SSE4.2 it
// runs the hardware `crc32` instruction, eight bytes per step (chosen at run
// time, no build flag); elsewhere a byte-at-a-time table. Both give the same
// values, so files written by either path verify under the other.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sudaf {

// CRC32C of `data`, optionally continuing from a previous `crc` (pass the
// return value of an earlier call to checksum in pieces).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t crc = 0) {
  return Crc32c(data.data(), data.size(), crc);
}

namespace internal {

// The table-driven fallback, exposed so tests can check the hardware path
// against it on hosts where `Crc32c` never takes the fallback.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

}  // namespace internal

}  // namespace sudaf

#endif  // SUDAF_COMMON_CRC32C_H_

#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUDAF_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace sudaf {

namespace {

// Byte-at-a-time table for the reflected Castagnoli polynomial.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

#ifdef SUDAF_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table, eight bytes per step. Compiled for SSE4.2 on this function
// only, and called only after a run-time CPU check.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const unsigned char* p,
                                                      size_t n, uint32_t crc) {
  uint64_t crc64 = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}

bool HasSse42() {
  // __builtin_cpu_init makes the check safe even during static
  // initialization, before libgcc has probed the CPU.
  static const bool has =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2") != 0);
  return has;
}
#endif

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc) {
  static const std::array<uint32_t, 256> table = BuildTable();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
#ifdef SUDAF_CRC32C_SSE42
  if (HasSse42()) {
    return Crc32cSse42(static_cast<const unsigned char*>(data), n, crc);
  }
#endif
  return internal::Crc32cPortable(data, n, crc);
}

}  // namespace sudaf

#include "storage/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fielddb {

namespace {

// Reflected CRC-32C lookup table, generated at static-init time.
std::array<uint32_t, 256> MakeTable() {
  constexpr uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C,
// 8 bytes per step; x86 is little-endian, so a loaded word feeds its
// bytes in memory order, as the table loop does. Callable only after
// the runtime CPUID check in ResolveExtend.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t state = static_cast<uint32_t>(~crc);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; n > 0; --n, ++p) state32 = _mm_crc32_u8(state32, *p);
  return ~state32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ResolveExtend() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cExtendSse42;
#endif
  return &Crc32cExtendTable;
}

ExtendFn ActiveExtend() {
  static const ExtendFn extend = ResolveExtend();
  return extend;
}

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& table = Table();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

bool Crc32cHardwareActive() { return ActiveExtend() != &Crc32cExtendTable; }

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return ActiveExtend()(crc, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace fielddb

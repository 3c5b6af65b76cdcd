#ifndef FIELDDB_STORAGE_CRC32C_H_
#define FIELDDB_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fielddb {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected), the checksum
/// used by iSCSI, ext4 and most storage engines. Runs on the SSE4.2
/// crc32 instruction (8 bytes per step) when the CPU has it, checked
/// once per process, and on a byte-at-a-time table loop otherwise. Both
/// paths return the same checksum, so files do not depend on the CPU.
uint32_t Crc32c(const void* data, size_t n);

/// Extends a running CRC with more bytes (crc is the value returned by a
/// previous Crc32c/Crc32cExtend call).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The portable table loop: the path on CPUs without SSE4.2, and the
/// oracle that tests and benchmarks compare the dispatched path with.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n);

/// True when Crc32cExtend runs on the SSE4.2 instruction.
bool Crc32cHardwareActive();

/// Masked CRC in the style of LevelDB/RocksDB: storing the raw CRC of
/// data that itself embeds CRCs is error-prone (a zeroed page has the
/// CRC of zeros), so persisted checksums are masked with a rotation and
/// an additive constant.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_CRC32C_H_

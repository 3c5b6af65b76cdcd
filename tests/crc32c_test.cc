#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

// One page slot of the page file: header plus default-size payload.
constexpr size_t kSlotBytes = kPageHeaderSize + kDefaultPageSize;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // RFC 3720 (iSCSI) B.4: 32 bytes of zeros.
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, DispatchedPathMatchesTableOverLengthsAndOffsets) {
  // Hardware and table paths agree for every slot-sized-or-smaller
  // length at every alignment of the start (when the CPU lacks SSE4.2
  // both sides run the table loop).
  RecordProperty("crc32c_path", Crc32cHardwareActive() ? "sse4.2" : "table");
  const std::vector<uint8_t> bytes = RandomBytes(kSlotBytes + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = bytes.data() + offset;
    for (size_t n = 0; n <= kSlotBytes; ++n) {
      ASSERT_EQ(Crc32cExtend(0, p, n), Crc32cExtendTable(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, ExtendSplitsMatchOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(kSlotBytes, 11);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  EXPECT_EQ(whole, Crc32cExtendTable(0, bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32cExtend(0, bytes.data(), split);
    ASSERT_EQ(Crc32cExtend(head, bytes.data() + split, bytes.size() - split),
              whole)
        << "split " << split;
    const uint32_t table_head = Crc32cExtendTable(0, bytes.data(), split);
    ASSERT_EQ(table_head, head) << "split " << split;
    ASSERT_EQ(Crc32cExtendTable(table_head, bytes.data() + split,
                                bytes.size() - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (const uint32_t crc : {0u, 1u, 0xE3069283u, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

}  // namespace
}  // namespace fielddb

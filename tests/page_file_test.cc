#include "storage/page_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "temp_dir.h"

namespace fielddb {
namespace {

TEST(PageTest, ReadWriteRoundtrip) {
  Page p(4096);
  EXPECT_EQ(p.size(), 4096u);
  const uint64_t magic = 0xDEADBEEFCAFEF00DULL;
  p.WriteAt<uint64_t>(16, magic);
  EXPECT_EQ(p.ReadAt<uint64_t>(16), magic);
  p.Zero();
  EXPECT_EQ(p.ReadAt<uint64_t>(16), 0u);
}

TEST(PageTest, BulkCopy) {
  Page p(256);
  const char src[] = "hello pages";
  p.Write(100, src, sizeof(src));
  char dst[sizeof(src)] = {};
  p.Read(100, dst, sizeof(src));
  EXPECT_STREQ(dst, "hello pages");
}

TEST(MemPageFileTest, AllocateSequentialIds) {
  MemPageFile f(512);
  EXPECT_EQ(f.NumPages(), 0u);
  for (PageId want = 0; want < 5; ++want) {
    StatusOr<PageId> id = f.Allocate(Page(f.page_size()));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, want);
  }
  EXPECT_EQ(f.NumPages(), 5u);
}

TEST(MemPageFileTest, WriteReadRoundtrip) {
  MemPageFile f(512);
  ASSERT_TRUE(f.Allocate(Page(f.page_size())).ok());
  Page p(512);
  p.WriteAt<uint32_t>(0, 777u);
  ASSERT_TRUE(f.Write(0, p).ok());
  Page q(512);
  ASSERT_TRUE(f.Read(0, &q).ok());
  EXPECT_EQ(q.ReadAt<uint32_t>(0), 777u);
}

TEST(MemPageFileTest, FreshPagesAreZeroed) {
  MemPageFile f(128);
  ASSERT_TRUE(f.Allocate(Page(f.page_size())).ok());
  Page p(128);
  ASSERT_TRUE(f.Read(0, &p).ok());
  for (uint32_t i = 0; i < 128; i += 8) {
    EXPECT_EQ(p.ReadAt<uint64_t>(i), 0u);
  }
}

TEST(MemPageFileTest, ZeroedPageReadsAsZerosUntilWritten) {
  // AllocateZeroed stores nothing for the page; a read before its first
  // write is still all zeros, and a read after it returns the bytes.
  MemPageFile f(256);
  Page dirty(256);
  dirty.WriteAt<uint64_t>(8, 0x1122334455667788ULL);
  ASSERT_TRUE(f.Allocate(dirty).ok());
  StatusOr<PageId> id = f.AllocateZeroed();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  EXPECT_EQ(f.NumPages(), 2u);
  Page p = dirty;  // a reused buffer holding other bytes
  ASSERT_TRUE(f.Read(1, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(8), 0u);
  for (uint32_t i = 0; i < 256; ++i) ASSERT_EQ(p.data()[i], 0u) << i;
  ASSERT_TRUE(f.Write(1, dirty).ok());
  ASSERT_TRUE(f.Read(1, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(8), 0x1122334455667788ULL);
}

TEST(MemPageFileTest, AllocateStoresThePage) {
  MemPageFile f(512);
  Page p(512);
  p.WriteAt<uint64_t>(8, 4242u);
  StatusOr<PageId> id = f.Allocate(p);
  ASSERT_TRUE(id.ok());
  Page q(512);
  ASSERT_TRUE(f.Read(*id, &q).ok());
  EXPECT_EQ(std::memcmp(p.data(), q.data(), 512), 0);
  EXPECT_EQ(f.Allocate(Page(256)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(f.NumPages(), 1u);
}

TEST(MemPageFileTest, OutOfRangeRejected) {
  MemPageFile f(512);
  Page p(512);
  EXPECT_EQ(f.Read(0, &p).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.Write(0, p).code(), StatusCode::kOutOfRange);
}

TEST(MemPageFileTest, SizeMismatchRejected) {
  MemPageFile f(512);
  ASSERT_TRUE(f.Allocate(Page(f.page_size())).ok());
  Page wrong(256);
  EXPECT_EQ(f.Write(0, wrong).code(), StatusCode::kInvalidArgument);
}

class DiskPageFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempDir() + "/fielddb_pagefile_test.bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskPageFileTest, CreateWriteReopenRead) {
  {
    auto f = DiskPageFile::Create(path_, 512);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    Page p(512);
    p.WriteAt<uint64_t>(8, 4242u);
    ASSERT_TRUE((*f)->Write(1, p).ok());
  }
  auto f = DiskPageFile::Open(path_, 512);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->NumPages(), 2u);
  Page p(512);
  ASSERT_TRUE((*f)->Read(1, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(8), 4242u);
}

TEST_F(DiskPageFileTest, AllocateStoresThePageUnderItsChecksum) {
  Page p(512);
  for (uint32_t i = 0; i < 512; i += 8) p.WriteAt<uint64_t>(i, i * 31 + 5);
  {
    auto f = DiskPageFile::Create(path_, 512, /*epoch=*/5);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    StatusOr<PageId> id = (*f)->Allocate(p);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 1u);
    EXPECT_EQ((*f)->Allocate(Page(256)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ((*f)->NumPages(), 2u);
  }
  auto f = DiskPageFile::Open(path_, 512, /*epoch=*/5);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->NumPages(), 2u);
  // Read verifies the slot's CRC, page id and epoch.
  Page q(512);
  ASSERT_TRUE((*f)->Read(1, &q).ok());
  EXPECT_EQ(std::memcmp(p.data(), q.data(), 512), 0);
  ASSERT_TRUE((*f)->CorruptRawForTest(1, kPageHeaderSize + 100, 0x04).ok());
  EXPECT_EQ((*f)->Read(1, &q).code(), StatusCode::kCorruption);
}

TEST_F(DiskPageFileTest, OpenMissingFails) {
  auto f = DiskPageFile::Open(path_ + ".nope", 512);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kIOError);
}

TEST_F(DiskPageFileTest, OpenBadLengthIsCorruption) {
  std::FILE* raw = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(raw, nullptr);
  std::fputs("not a multiple of 512", raw);
  std::fclose(raw);
  auto f = DiskPageFile::Open(path_, 512);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kCorruption);
}

TEST_F(DiskPageFileTest, OutOfRangeRejected) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  Page p(512);
  EXPECT_EQ((*f)->Read(3, &p).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace fielddb

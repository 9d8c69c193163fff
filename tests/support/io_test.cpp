// support::io: CRC32 against known vectors, atomic file replacement,
// durable appends, and the fault-injection contract the crash-safety
// tests build on — an injected short write leaves a genuinely torn
// file, an injected fsync failure reports the data as not persisted,
// and writeFileAtomic never lets either corrupt the destination.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "cinderella/support/fault_injector.hpp"
#include "cinderella/support/io.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::support {
namespace {

std::string readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool exists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

class IoTest : public ::testing::Test {
 protected:
  std::string path_ = test_util::uniqueTempPath("io_test.bin");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789" is the classic test.
  EXPECT_EQ(io::crc32(""), 0u);
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string bytes = "snapshot payload bytes";
  const std::uint32_t clean = io::crc32(bytes);
  for (std::size_t bit = 0; bit < bytes.size() * 8; bit += 7) {
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(io::crc32(bytes), clean) << "undetected flip at bit " << bit;
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
}

TEST_F(IoTest, WriteFileAtomicWritesAndReplaces) {
  std::string error;
  ASSERT_TRUE(io::writeFileAtomic(path_, "first contents", &error)) << error;
  EXPECT_EQ(readAll(path_), "first contents");
  ASSERT_TRUE(io::writeFileAtomic(path_, "second", &error)) << error;
  EXPECT_EQ(readAll(path_), "second");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(IoTest, InjectedShortWriteLeavesDestinationIntact) {
  std::string error;
  ASSERT_TRUE(io::writeFileAtomic(path_, "the good version", &error)) << error;

  FaultPlan plan;
  plan.snapshotWriteRate = 1.0;
  FaultInjector injector(plan);
  ScopedFaultInjector scoped(&injector);

  error.clear();
  EXPECT_FALSE(io::writeFileAtomic(path_, "the replacement", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_GT(injector.injected(FaultSite::SnapshotWrite), 0);
  // The rename never happened: the destination still holds the old
  // bytes, and the torn temp file was cleaned up.
  EXPECT_EQ(readAll(path_), "the good version");
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(IoTest, InjectedFsyncFailureFailsTheWrite) {
  FaultPlan plan;
  plan.snapshotFsyncRate = 1.0;
  FaultInjector injector(plan);
  ScopedFaultInjector scoped(&injector);

  std::string error;
  EXPECT_FALSE(io::writeFileAtomic(path_, "never durable", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_GT(injector.injected(FaultSite::SnapshotFsync), 0);
}

TEST_F(IoTest, AppendDurableAccumulatesRecords) {
  std::string error;
  ASSERT_TRUE(io::appendDurable(path_, "rec1|", &error)) << error;
  ASSERT_TRUE(io::appendDurable(path_, "rec2|", &error)) << error;
  EXPECT_EQ(readAll(path_), "rec1|rec2|");
}

TEST_F(IoTest, InjectedShortAppendLeavesTornPrefix) {
  std::string error;
  ASSERT_TRUE(io::appendDurable(path_, "intact|", &error)) << error;

  FaultPlan plan;
  plan.snapshotWriteRate = 1.0;
  FaultInjector injector(plan);
  ScopedFaultInjector scoped(&injector);

  error.clear();
  EXPECT_FALSE(io::appendDurable(path_, "torntorn", &error));
  EXPECT_FALSE(error.empty());
  // The short write really hit the disk: a strict prefix of the record
  // follows the intact bytes — exactly what a crash mid-append leaves,
  // and what the journal reader must stop cleanly at.
  const std::string contents = readAll(path_);
  EXPECT_EQ(contents, std::string("intact|") + "torn");
}

}  // namespace
}  // namespace cinderella::support

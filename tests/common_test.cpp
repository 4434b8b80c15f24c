// Unit tests for the foundation module: RNG, statistics, byte/bit I/O and
// the table printer, plus the test support's hex encoder.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "support/oracles.h"

namespace rekey {
namespace {

TEST(Ensure, ThrowsWithLocationAndMessage) {
  try {
    REKEY_ENSURE_MSG(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const EnsureError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test"), std::string::npos);
  }
}

TEST(Ensure, PassesSilently) { REKEY_ENSURE(2 + 2 == 4); }

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(11);
  double s = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += r.next_double();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, NextInRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_in(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, NextInDegenerateRange) {
  Rng r(3);
  EXPECT_EQ(r.next_in(5, 5), 5u);
}

TEST(Rng, NextInCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_in(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextInRejectsInvertedRange) {
  Rng r(1);
  EXPECT_THROW(r.next_in(3, 2), EnsureError);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.2);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double s = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) s += r.next_exponential(40.0);
  EXPECT_NEAR(s / n, 40.0, 0.5);
}

TEST(Rng, ExponentialPositive) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.next_exponential(1.0), 0.0);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(19);
  const auto v = r.sample_without_replacement(100, 40);
  std::set<std::uint64_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 40u);
  for (const auto x : v) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng r(19);
  const auto v = r.sample_without_replacement(50, 50);
  std::set<std::uint64_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 50u);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  // Each element should be picked with probability k/n.
  Rng r(23);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t)
    for (const auto x : r.sample_without_replacement(20, 5)) ++counts[x];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependent) {
  Rng a(31);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, MeanAndMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(ByteWriter, BigEndianOrder) {
  ByteWriter w;
  w.put_u16(0x1234);
  w.put_u32(0xAABBCCDD);
  const Bytes b = std::move(w).take();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0xAA);
  EXPECT_EQ(b[5], 0xDD);
}

TEST(ByteWriter, BitPacking) {
  ByteWriter w;
  w.put_bits(0b10, 2);
  w.put_bits(0b110101, 6);
  const Bytes b = std::move(w).take();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 0b10110101);
}

TEST(ByteWriter, ByteFieldMidBitfieldThrows) {
  ByteWriter w;
  w.put_bits(1, 3);
  EXPECT_THROW(w.put_u8(0), EnsureError);
}

TEST(ByteWriter, PadTo) {
  ByteWriter w;
  w.put_u8(0xFF);
  w.pad_to(4);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_THROW(w.pad_to(2), EnsureError);  // cannot shrink
  EXPECT_EQ(std::move(w).take(), (Bytes{0xFF, 0, 0, 0}));
}

TEST(ByteRoundtrip, AllWidths) {
  ByteWriter w;
  w.put_bits(2, 2);
  w.put_bits(57, 6);
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  const Bytes wire = std::move(w).take();

  ByteReader r(wire);
  EXPECT_EQ(r.get_bits(2), 2u);
  EXPECT_EQ(r.get_bits(6), 57u);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, TruncationThrows) {
  const Bytes wire{0x01};
  ByteReader r(wire);
  EXPECT_THROW(r.get_u16(), EnsureError);
}

TEST(ByteReader, GetBytes) {
  const Bytes wire{1, 2, 3, 4};
  ByteReader r(wire);
  EXPECT_EQ(r.get_bytes(2), (Bytes{1, 2}));
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Hex, Encoding) {
  const Bytes b{0x00, 0xFF, 0x1A};
  EXPECT_EQ(test::to_hex(b), "00ff1a");
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), 22.25});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.250"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), EnsureError);
}

TEST(Table, IntegerCells) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("42"), std::string::npos);
}

}  // namespace
}  // namespace rekey

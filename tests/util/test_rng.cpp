#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace h2 {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(Rng, DoublesGenerator) {
  Rng rng(17);
  auto v = rng.doubles(256, -2.0, 2.0);
  ASSERT_EQ(v.size(), 256u);
  for (double x : v) {
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(Rng, BytesGeneratorSizeExact) {
  Rng rng(19);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

}  // namespace
}  // namespace h2

// Tests for the aggregation helpers and the distinct-set.
#include "engine/agg.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/u64set.h"
#include "util/prng.h"

namespace spider {
namespace {

TEST(U64SetTest, InsertAndContains) {
  U64Set set;
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.contains(42));
  EXPECT_FALSE(set.contains(43));
  EXPECT_EQ(set.size(), 1u);
}

TEST(U64SetTest, ZeroKeyIsSupported) {
  U64Set set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

TEST(U64SetTest, GrowthPreservesMembership) {
  U64Set set(4);  // force many growths
  Rng rng(5);
  std::set<std::uint64_t> reference;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = rng.next_u64() % 30000;  // force duplicates
    EXPECT_EQ(set.insert(key), reference.insert(key).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (const std::uint64_t key : reference) {
    ASSERT_TRUE(set.contains(key));
  }
}

TEST(U64SetTest, DuplicateStreamNeverGrows) {
  // Probe-before-grow: inserting the same keys forever adds no occupancy,
  // so the table must keep its original capacity.
  U64Set set(8);
  for (std::uint64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.insert(k));
  const std::size_t capacity = set.capacity();
  for (int round = 0; round < 1000; ++round) {
    for (std::uint64_t k = 1; k <= 8; ++k) EXPECT_FALSE(set.insert(k));
  }
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_EQ(set.size(), 8u);
}

TEST(U64SetTest, RawSetHoldsPackedPairsAndRoundTrips) {
  // (user << 32) | project keys: identical low bits for every member of a
  // project, which is what the mixed slot selection is for.
  U64SetRaw set(4);
  std::set<std::uint64_t> reference;
  for (std::uint64_t user = 0; user < 300; ++user) {
    for (std::uint64_t project = 0; project < 5; ++project) {
      const std::uint64_t key = (user << 32) | project;
      EXPECT_TRUE(set.insert(key));
      reference.insert(key);
    }
  }
  EXPECT_FALSE(set.insert(7ull << 32 | 3));
  EXPECT_FALSE(set.contains(7ull << 32 | 5));
  EXPECT_EQ(set.size(), reference.size());

  std::vector<std::uint8_t> image;
  StateWriter w(&image);
  set.save_state(w);
  StateReader r(image);
  U64SetRaw restored;
  ASSERT_TRUE(restored.load_state(r));
  EXPECT_EQ(restored.size(), reference.size());
  for (const std::uint64_t key : reference) ASSERT_TRUE(restored.contains(key));
}

TEST(MergeCountsTest, AddsPerKey) {
  CountMap<std::string> a{{"x", 1}, {"y", 2}};
  const CountMap<std::string> b{{"y", 3}, {"z", 4}};
  merge_counts(a, b);
  EXPECT_EQ(a["x"], 1u);
  EXPECT_EQ(a["y"], 5u);
  EXPECT_EQ(a["z"], 4u);
  EXPECT_EQ(total_count(a), 10u);
}

TEST(MergeCountsTest, OverlappingKeySetsDoNotOverReserve) {
  // The copy overload reserves max(|into|, |from|), not the sum: identical
  // key sets must leave the bucket count untouched.
  CountMap<int> a, b;
  for (int k = 0; k < 1000; ++k) {
    a[k] = 1;
    b[k] = 2;
  }
  const std::size_t buckets = a.bucket_count();
  merge_counts(a, b);
  // The old sum-reserve would rehash to >= 2000 buckets here; max-reserve
  // must never grow the table (libstdc++ may even tighten it).
  EXPECT_LE(a.bucket_count(), buckets);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(total_count(a), 3000u);
}

TEST(MergeCountsTest, IntoEmptyCopies) {
  CountMap<int> a;
  const CountMap<int> b{{1, 2}, {3, 4}};
  merge_counts(a, b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(3), 4u);
}

TEST(ParallelCountTest, MatchesSerial) {
  constexpr std::size_t kN = 100000;
  const auto counts = parallel_count<std::uint64_t>(
      kN, [](std::size_t row, auto emit) { emit(row % 7, 1); });
  EXPECT_EQ(counts.size(), 7u);
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  EXPECT_EQ(total, kN);
  EXPECT_EQ(counts.at(0), kN / 7 + 1);  // 100000 = 7*14285 + 5
}

TEST(ParallelCountTest, MultipleEmitsPerRow) {
  const auto counts = parallel_count<int>(100, [](std::size_t row, auto emit) {
    emit(0, 1);
    if (row % 2 == 0) emit(1, 2);
  });
  EXPECT_EQ(counts.at(0), 100u);
  EXPECT_EQ(counts.at(1), 100u);
}

TEST(TopKTest, OrderAndTieBreak) {
  CountMap<std::string> counts{
      {"b", 5}, {"a", 5}, {"c", 9}, {"d", 1}, {"e", 3}};
  const auto top = top_k(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");  // tie with b broken by key
  EXPECT_EQ(top[2].first, "b");
}

TEST(TopKTest, KLargerThanMap) {
  CountMap<int> counts{{1, 1}};
  EXPECT_EQ(top_k(counts, 10).size(), 1u);
  EXPECT_TRUE(top_k(CountMap<int>{}, 3).empty());
}

}  // namespace
}  // namespace spider

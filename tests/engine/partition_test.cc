// Unit tests for the radix-partitioning primitive (engine/partition.h) and
// the partitioned path index built on it: partition layout must cover
// every kept item exactly once, keep ascending input order within each
// partition, and be byte-identical at every pool width.
#include "engine/partition.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "engine/hash_index.h"
#include "util/hash.h"
#include "util/prng.h"

namespace spider {
namespace {

RawRecord file_record(const std::string& path, std::int64_t atime,
                      std::int64_t ctime, std::int64_t mtime) {
  RawRecord rec;
  rec.path = path;
  rec.atime = atime;
  rec.ctime = ctime;
  rec.mtime = mtime;
  rec.mode = kModeRegular | 0664;
  return rec;
}

RawRecord dir_record(const std::string& path) {
  RawRecord rec;
  rec.path = path;
  rec.mode = kModeDirectory | 0775;
  return rec;
}

SnapshotTable mixed_table(std::size_t files, std::size_t every_nth_dir) {
  SnapshotTable t;
  for (std::size_t i = 0; i < files; ++i) {
    if (every_nth_dir != 0 && i % every_nth_dir == 0) {
      t.add(dir_record("/lustre/atlas2/p/d" + std::to_string(i)));
    } else {
      t.add(file_record("/lustre/atlas2/p/u/f" + std::to_string(i),
                        static_cast<std::int64_t>(i), 2, 3));
    }
  }
  return t;
}

TEST(RadixBitsTest, GrowsWithInputAndClamps) {
  EXPECT_EQ(radix_bits_for(0), 1u);
  EXPECT_EQ(radix_bits_for(4096), 1u);
  EXPECT_GE(radix_bits_for(1 << 20), 8u);
  EXPECT_LE(radix_bits_for(std::size_t{1} << 40), 10u);
  // Monotone: more items never means fewer partitions.
  std::uint32_t last = 0;
  for (std::size_t n = 1; n < (std::size_t{1} << 24); n *= 4) {
    const std::uint32_t bits = radix_bits_for(n);
    EXPECT_GE(bits, last);
    last = bits;
  }
}

TEST(RadixPartitionTest, CoversEveryFileExactlyOnce) {
  const SnapshotTable t = mixed_table(30'000, 25);
  const std::uint32_t bits = radix_bits_for(t.file_count());
  const RadixPartitions parts = radix_partition_files(t, bits);

  ASSERT_EQ(parts.partition_count(), std::size_t{1} << bits);
  EXPECT_EQ(parts.items.size(), t.file_count());
  EXPECT_EQ(parts.keys.size(), t.file_count());

  std::vector<bool> seen(t.size(), false);
  for (std::size_t p = 0; p < parts.partition_count(); ++p) {
    const auto rows = parts.partition_items(p);
    const auto keys = parts.partition_keys(p);
    ASSERT_EQ(rows.size(), keys.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint32_t row = rows[i];
      EXPECT_FALSE(seen[row]) << "row " << row << " appears twice";
      seen[row] = true;
      EXPECT_FALSE(t.is_dir(row));
      EXPECT_EQ(keys[i], t.path_hash(row));
      EXPECT_EQ(RadixPartitions::partition_of(keys[i], bits), p);
      if (i > 0) {
        EXPECT_LT(rows[i - 1], row) << "not ascending in partition";
      }
    }
  }
  std::size_t covered = 0;
  for (std::size_t row = 0; row < t.size(); ++row) {
    if (seen[row]) ++covered;
    EXPECT_EQ(seen[row], !t.is_dir(row));
  }
  EXPECT_EQ(covered, t.file_count());
}

TEST(RadixPartitionTest, LayoutIndependentOfPoolWidth) {
  const SnapshotTable t = mixed_table(50'000, 17);
  const std::uint32_t bits = radix_bits_for(t.file_count());
  ThreadPool one(1), many(7);
  const RadixPartitions a = radix_partition_files(t, bits, &one);
  const RadixPartitions b = radix_partition_files(t, bits, &many);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.keys, b.keys);
}

TEST(RadixPartitionTest, EmptyAndDirsOnlyTables) {
  const SnapshotTable empty;
  const RadixPartitions none = radix_partition_files(empty, 3);
  EXPECT_EQ(none.partition_count(), 8u);
  EXPECT_TRUE(none.items.empty());

  SnapshotTable dirs;
  for (int i = 0; i < 100; ++i) {
    dirs.add(dir_record("/lustre/atlas2/d" + std::to_string(i)));
  }
  const RadixPartitions stillnone = radix_partition_files(dirs, 2);
  EXPECT_TRUE(stillnone.items.empty());
  for (std::size_t p = 0; p < stillnone.partition_count(); ++p) {
    EXPECT_TRUE(stillnone.partition_items(p).empty());
  }
}

TEST(RadixPartitionTest, SingleBitSplitsOnTopBit) {
  const RadixPartitions parts = radix_partition(
      4, 1, [](std::size_t i) { return i < 2 ? 0x0ULL : ~0x0ULL; },
      [](std::size_t) { return true; });
  ASSERT_EQ(parts.partition_count(), 2u);
  EXPECT_EQ(parts.partition_items(0).size(), 2u);
  EXPECT_EQ(parts.partition_items(1).size(), 2u);
  EXPECT_EQ(parts.partition_items(0)[0], 0u);
  EXPECT_EQ(parts.partition_items(1)[0], 2u);
}

TEST(PartitionedPathIndexTest, LookupHitsMissesAndDirs) {
  SnapshotTable t;
  t.add(file_record("/lustre/atlas2/p/u/a", 11, 12, 13));
  t.add(dir_record("/lustre/atlas2/p/u"));
  t.add(file_record("/lustre/atlas2/p/u/b", 21, 22, 23));

  const PartitionedPathIndex index(t);
  EXPECT_EQ(index.size(), 2u);
  ASSERT_EQ(index.file_rows().size(), 2u);
  EXPECT_EQ(index.file_rows()[0], 0u);
  EXPECT_EQ(index.file_rows()[1], 2u);

  const std::uint32_t a = index.lookup(t, hash_bytes("/lustre/atlas2/p/u/a"),
                                       "/lustre/atlas2/p/u/a");
  ASSERT_NE(a, PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.row_of(a), 0u);
  EXPECT_EQ(index.payload(a).atime, 11);
  EXPECT_EQ(index.payload(a).ctime, 12);
  EXPECT_EQ(index.payload(a).mtime, 13);

  const std::uint32_t b = index.lookup(t, hash_bytes("/lustre/atlas2/p/u/b"),
                                       "/lustre/atlas2/p/u/b");
  ASSERT_NE(b, PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.row_of(b), 2u);

  // The directory is not indexed; a probe for it misses.
  EXPECT_EQ(index.lookup(t, hash_bytes("/lustre/atlas2/p/u"),
                         "/lustre/atlas2/p/u"),
            PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.lookup(t, hash_bytes("/nope"), "/nope"),
            PartitionedPathIndex::kNotFound);
}

TEST(PartitionedPathIndexTest, EmptyTable) {
  const SnapshotTable t;
  const PartitionedPathIndex index(t);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.lookup(t, 123, "/x"), PartitionedPathIndex::kNotFound);
}

TEST(PartitionedPathIndexTest, CollidingHashNeverReturnsWrongRow) {
  // Simulate full 64-bit collisions by probing with path A's hash but a
  // different path: the fingerprint matches A's entry, so the probe must
  // fall through the path comparison and keep walking to a miss.
  SnapshotTable t;
  t.add(file_record("/lustre/atlas2/p/u/a", 1, 1, 1));
  t.add(file_record("/lustre/atlas2/p/u/b", 2, 2, 2));
  const PartitionedPathIndex index(t);
  EXPECT_EQ(index.lookup(t, hash_bytes("/lustre/atlas2/p/u/a"), "/other"),
            PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.lookup(t, hash_bytes("/lustre/atlas2/p/u/a"),
                         "/lustre/atlas2/p/u/b"),
            PartitionedPathIndex::kNotFound);
  const std::uint32_t b = index.lookup(t, hash_bytes("/lustre/atlas2/p/u/b"),
                                       "/lustre/atlas2/p/u/b");
  ASSERT_NE(b, PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.row_of(b), 1u);
}

TEST(PartitionedPathIndexTest, DuplicatePathKeepsFirstRow) {
  SnapshotTable t;
  t.add(file_record("/lustre/atlas2/p/u/same", 1, 1, 1));
  t.add(file_record("/lustre/atlas2/p/u/same", 2, 2, 2));
  const PartitionedPathIndex index(t);
  EXPECT_EQ(index.size(), 2u);  // both rows listed in file_rows...
  const std::uint32_t e = index.lookup(t, hash_bytes("/lustre/atlas2/p/u/same"),
                                       "/lustre/atlas2/p/u/same");
  ASSERT_NE(e, PartitionedPathIndex::kNotFound);
  EXPECT_EQ(index.row_of(e), 0u);  // ...but the first row wins
  EXPECT_EQ(index.payload(e).atime, 1);
}

TEST(PartitionedPathIndexTest, BloomFilterHasNoFalseNegatives) {
  // maybe_contains may say yes for absent hashes (lookup still resolves
  // those exactly), but must never say no for an indexed one — that would
  // make lookup drop real matches.
  const SnapshotTable t = mixed_table(20'000, 11);
  const PartitionedPathIndex index(t);
  for (std::size_t row = 0; row < t.size(); ++row) {
    if (t.is_dir(row)) continue;
    EXPECT_TRUE(index.maybe_contains(t.path_hash(row))) << t.path(row);
  }
}

TEST(PartitionedPathIndexTest, MatchesNaiveMapOnLargeTable) {
  const SnapshotTable t = mixed_table(40'000, 13);
  ThreadPool pool(4);
  const PartitionedPathIndex partitioned(t, &pool);
  // The naive reference: path -> first file row with that path.
  std::unordered_map<std::string, std::uint32_t> naive;
  for (std::size_t row = 0; row < t.size(); ++row) {
    if (!t.is_dir(row)) {
      naive.emplace(std::string(t.path(row)), static_cast<std::uint32_t>(row));
    }
  }
  EXPECT_EQ(partitioned.size(), t.file_count());
  EXPECT_GT(partitioned.partition_count(), 1u);
  Rng rng(7);
  for (int probe = 0; probe < 5000; ++probe) {
    const std::size_t i = rng.uniform_u64(t.size() + 100);
    const std::string path = i < t.size()
                                 ? std::string(t.path(i))
                                 : "/lustre/ghost/f" + std::to_string(i);
    const std::uint64_t h = hash_bytes(path);
    const std::uint32_t ordinal = partitioned.lookup(t, h, path);
    const auto it = naive.find(path);
    if (it == naive.end()) {
      EXPECT_EQ(ordinal, PartitionedPathIndex::kNotFound) << path;
    } else {
      const std::uint32_t row = it->second;
      ASSERT_NE(ordinal, PartitionedPathIndex::kNotFound) << path;
      EXPECT_EQ(partitioned.row_of(ordinal), row) << path;
      EXPECT_EQ(partitioned.payload(ordinal).atime, t.atime(row));
      EXPECT_EQ(partitioned.payload(ordinal).mtime, t.mtime(row));
      EXPECT_EQ(partitioned.payload(ordinal).ctime, t.ctime(row));
    }
  }
}

}  // namespace
}  // namespace spider

// .scol v2 row-group layout: round-trip property sweep across every
// encoding-knob combination and the group-boundary row counts, group
// checksum isolation, version dispatch, parallel/serial decode parity, and
// the front-coded path decoder against SnapshotTable::add (stored bytes,
// hashes, depths, footprint, and failures that must leave the destination
// untouched).
#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "snapshot/scol.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace spider {
namespace {

constexpr std::size_t kGroup = 64;  // small groups keep the sweep fast

SnapshotTable make_table(std::size_t rows, std::uint64_t seed = 7) {
  Rng rng(seed);
  SnapshotTable t;
  std::int64_t mtime = 1420416000;
  for (std::size_t i = 0; i < rows; ++i) {
    RawRecord rec;
    const std::size_t proj = i / 50;
    rec.path = "/lustre/atlas2/proj" + std::to_string(proj) + "/u" +
               std::to_string(proj % 7) + "/run" + std::to_string(i % 9) +
               "/step." + std::to_string(i);
    mtime += static_cast<std::int64_t>(rng.uniform_u64(1000));
    rec.mtime = mtime;
    rec.ctime = mtime;
    rec.atime = mtime + static_cast<std::int64_t>(rng.uniform_u64(86400));
    rec.uid = static_cast<std::uint32_t>(1000 + proj % 13);
    rec.gid = static_cast<std::uint32_t>(2000 + proj % 5);
    rec.mode = (i % 20 == 0) ? (kModeDirectory | 0775) : (kModeRegular | 0664);
    rec.inode = 1'000'000 + i * 3;
    if (!rec.is_dir()) {
      const std::size_t stripes = 1 + rng.uniform_u64(8);
      for (std::size_t s = 0; s < stripes; ++s) {
        rec.osts.push_back(static_cast<std::uint32_t>(rng.uniform_u64(2016)));
      }
    }
    t.add(rec);
  }
  return t;
}

void expect_tables_equal(const SnapshotTable& a, const SnapshotTable& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.file_count(), b.file_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.path(i), b.path(i)) << "row " << i;
    ASSERT_EQ(a.path_hash(i), b.path_hash(i)) << "row " << i;
    ASSERT_EQ(a.depth(i), b.depth(i)) << "row " << i;
    ASSERT_EQ(a.atime(i), b.atime(i)) << "row " << i;
    ASSERT_EQ(a.ctime(i), b.ctime(i)) << "row " << i;
    ASSERT_EQ(a.mtime(i), b.mtime(i)) << "row " << i;
    ASSERT_EQ(a.uid(i), b.uid(i)) << "row " << i;
    ASSERT_EQ(a.gid(i), b.gid(i)) << "row " << i;
    ASSERT_EQ(a.mode(i), b.mode(i)) << "row " << i;
    ASSERT_EQ(a.inode(i), b.inode(i)) << "row " << i;
    const auto osts_a = a.osts(i);
    const auto osts_b = b.osts(i);
    ASSERT_EQ(osts_a.size(), osts_b.size()) << "row " << i;
    for (std::size_t k = 0; k < osts_a.size(); ++k) {
      ASSERT_EQ(osts_a[k], osts_b[k]);
    }
  }
}

// Every encoding-knob combination must round-trip exactly at every row
// count that stresses a group boundary: empty, single row, one short of a
// boundary, exactly at it, one past it, and a multi-group remainder.
class ScolV2OptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScolV2OptionSweep, RoundTripAcrossGroupBoundaries) {
  const int mask = GetParam();
  ScolOptions options;
  options.front_code_paths = mask & 1;
  options.delta_timestamps = mask & 2;
  options.rle_ids = mask & 4;
  options.delta_inodes = mask & 8;
  options.group_size = kGroup;

  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, kGroup - 1, kGroup, kGroup + 1,
        3 * kGroup + 7}) {
    const SnapshotTable original = make_table(rows);
    const auto image = encode_scol(original, options);
    ASSERT_EQ(std::memcmp(image.data(), "SCOL0002", 8), 0);
    SnapshotTable decoded;
    std::string error;
    ASSERT_TRUE(decode_scol(image, &decoded, &error))
        << "rows=" << rows << ": " << error;
    expect_tables_equal(original, decoded);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombinations, ScolV2OptionSweep,
                         ::testing::Range(0, 16));

TEST(ScolV2Test, V1ImagesStillDecode) {
  // Backward-compat fixture: the v1 writer (the seed encoder's layout,
  // exposed through the format_version knob) must keep decoding through
  // the version dispatch.
  const SnapshotTable original = make_table(500);
  ScolOptions v1;
  v1.format_version = 1;
  const auto image = encode_scol(original, v1);
  ASSERT_EQ(std::memcmp(image.data(), "SCOL0001", 8), 0);
  SnapshotTable decoded;
  std::string error;
  ASSERT_TRUE(decode_scol(image, &decoded, &error)) << error;
  expect_tables_equal(original, decoded);
}

// The report counts the image's rows, not the destination's: decoding a
// v1 image into a table that already holds rows must not add those rows
// to rows_total / rows_recovered.
TEST(ScolV2Test, V1ReportCountsOnlyTheImagesRows) {
  const SnapshotTable original = make_table(300);
  ScolOptions v1;
  v1.format_version = 1;
  const auto image = encode_scol(original, v1);
  SnapshotTable out = make_table(5, /*seed=*/99);
  SalvageReport report;
  ASSERT_TRUE(decode_scol(image, &out, ScolOptions{}, &report).ok());
  EXPECT_EQ(out.size(), 305u);
  EXPECT_EQ(report.groups_total, 1u);
  EXPECT_EQ(report.rows_total, 300u);
  EXPECT_EQ(report.rows_recovered, 300u);
  EXPECT_TRUE(report.clean());
}

TEST(ScolV2Test, V1AndV2EncodeIdenticalTables) {
  const SnapshotTable original = make_table(3 * kGroup + 7);
  ScolOptions v1;
  v1.format_version = 1;
  ScolOptions v2;
  v2.group_size = kGroup;
  SnapshotTable from_v1, from_v2;
  ASSERT_TRUE(decode_scol(encode_scol(original, v1), &from_v1));
  ASSERT_TRUE(decode_scol(encode_scol(original, v2), &from_v2));
  expect_tables_equal(from_v1, from_v2);
}

TEST(ScolV2Test, CorruptedGroupChecksumIsRejected) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(3 * kGroup + 7);
  auto image = encode_scol(original, options);

  // The image tail is the last group's OST payload; flipping a byte there
  // must fail that group's checksum and name the group.
  auto corrupted = image;
  corrupted[corrupted.size() - 5] ^= 0xff;
  SnapshotTable decoded;
  std::string error;
  EXPECT_FALSE(decode_scol(corrupted, &decoded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  EXPECT_NE(error.find("group 3"), std::string::npos) << error;

  // Truncation anywhere — inside the header, the directory, or a group —
  // must fail cleanly.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, std::size_t{30},
        image.size() / 2, image.size() - 1}) {
    SnapshotTable partial;
    const std::span<const std::uint8_t> prefix(image.data(), keep);
    EXPECT_FALSE(decode_scol(prefix, &partial, nullptr)) << "keep=" << keep;
  }
}

TEST(ScolV2Test, RandomCorruptionNeverCrashes) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup + 11, 23);
  const auto image = encode_scol(original, options);
  Rng rng(7919);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = image;
    const std::size_t pos = rng.uniform_u64(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    SnapshotTable decoded;
    std::string error;
    if (!decode_scol(corrupted, &decoded, &error)) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_EQ(decoded.size(), original.size());
    }
  }
}

TEST(ScolV2Test, ParallelAndSerialDecodeMatch) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(5 * kGroup + 3);
  ThreadPool serial(1), wide(4);
  const auto image_serial = encode_scol(original, options, &serial);
  const auto image_wide = encode_scol(original, options, &wide);
  ASSERT_EQ(image_serial, image_wide)
      << "encoded image must not depend on the thread count";
  SnapshotTable dec_serial, dec_wide;
  std::string error;
  ASSERT_TRUE(decode_scol(image_wide, &dec_serial, &error, &serial)) << error;
  ASSERT_TRUE(decode_scol(image_wide, &dec_wide, &error, &wide)) << error;
  expect_tables_equal(dec_serial, dec_wide);
  expect_tables_equal(original, dec_wide);
}

TEST(ScolV2Test, DecodeAppendsToExistingTable) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup);
  const auto image = encode_scol(original, options);
  SnapshotTable out;
  RawRecord pre;
  pre.path = "/lustre/atlas2/p/u/pre";
  out.add(pre);
  std::string error;
  ASSERT_TRUE(decode_scol(image, &out, &error)) << error;
  EXPECT_EQ(out.size(), 2 * kGroup + 1);
  EXPECT_EQ(out.path(0), "/lustre/atlas2/p/u/pre");
  EXPECT_EQ(out.path(1), original.path(0));
  EXPECT_EQ(out.path(2 * kGroup), original.path(2 * kGroup - 1));
}

TEST(ScolV2Test, GroupDirectoryRowMismatchIsRejected) {
  ScolOptions options;
  options.group_size = kGroup;
  const SnapshotTable original = make_table(2 * kGroup);
  auto image = encode_scol(original, options);
  // Total-row field (offset 8) no longer matches the directory sum.
  image[8] ^= 1;
  SnapshotTable decoded;
  std::string error;
  EXPECT_FALSE(decode_scol(image, &decoded, &error));
  EXPECT_FALSE(error.empty());
}

// ---- path decode parity and failures -------------------------------------

/// Rows whose front coding hits every decoder edge: an empty suffix (a
/// repeated path), shared == prev.size() with the suffix opening a new
/// component or continuing the last one, cuts in the middle of a
/// component, double and trailing slashes, "" and "/", and chains that
/// grow past 2,000 levels.
SnapshotTable make_chain_table(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  SnapshotTable t;
  std::string prev;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string tag = std::to_string(i);
    std::string path;
    // The first rows build one chain 2,400 levels deep, 60 at a time.
    switch (i < 40 ? 5 : rng.uniform_u64(8)) {
      case 0: path = prev; break;
      case 1: path = prev + "/d" + tag; break;
      case 2: path = prev + "x"; break;
      case 3:
        path = prev.substr(0, rng.uniform_u64(prev.size() + 1)) + "q" + tag;
        break;
      case 4:
        path = prev.substr(0, rng.uniform_u64(prev.size() + 1)) + "//s" +
               tag + "/";
        break;
      case 5:
        path = prev;
        for (int k = 0; k < 60; ++k) path += "/c" + std::to_string(k);
        break;
      case 6: path = rng.chance(0.5) ? "" : "/"; break;
      default: {
        static constexpr char kAlphabet[] = {'/', '/', 'a', 'b', '.'};
        path = prev.substr(0, rng.uniform_u64(prev.size() + 1));
        const std::size_t len = rng.uniform_u64(12);
        for (std::size_t k = 0; k < len; ++k) {
          path += kAlphabet[rng.uniform_u64(sizeof(kAlphabet))];
        }
        break;
      }
    }
    if (path.size() > 40'000) path = "/lustre/atlas2/p" + tag;
    RawRecord rec;
    rec.path = path;
    rec.mtime = 1420416000 + static_cast<std::int64_t>(i);
    rec.atime = rec.mtime + 5;
    rec.ctime = rec.mtime;
    rec.uid = static_cast<std::uint32_t>(rng.uniform_u64(4));
    rec.gid = static_cast<std::uint32_t>(rng.uniform_u64(3));
    rec.mode = rng.chance(0.3) ? (kModeDirectory | 0775) : (kModeRegular | 0664);
    rec.inode = 7 + i;
    if (!rec.is_dir()) rec.osts = {static_cast<std::uint32_t>(i % 7)};
    t.add(rec);
    prev = path;
  }
  return t;
}

/// What decode_scol builds when every row goes through SnapshotTable::add:
/// one staging table per surviving group (reserved to its rows), spliced
/// into a destination reserved for all survivors.
SnapshotTable add_reference(const SnapshotTable& original,
                            std::size_t group_size,
                            const std::vector<std::size_t>& dropped = {}) {
  std::vector<SnapshotTable> staging;
  std::size_t kept = 0;
  for (std::size_t begin = 0, g = 0; begin < original.size();
       begin += group_size, ++g) {
    const std::size_t end = std::min(begin + group_size, original.size());
    if (std::find(dropped.begin(), dropped.end(), g) != dropped.end()) {
      continue;
    }
    SnapshotTable& st = staging.emplace_back();
    st.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) st.add(original.row(i));
    kept += end - begin;
  }
  SnapshotTable out;
  out.reserve(kept);
  for (SnapshotTable& st : staging) out.append_table(std::move(st));
  return out;
}

TEST(ScolPathDecodeTest, MatchesAddAtEveryGroupSize) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const SnapshotTable original = make_chain_table(400, seed);
    std::size_t max_depth = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      max_depth = std::max<std::size_t>(max_depth, original.depth(i));
    }
    ASSERT_GT(max_depth, 2000u) << "fixture must reach a 2,000-deep chain";
    for (const std::size_t group_size :
         {std::size_t{1}, std::size_t{3}, ScolOptions{}.group_size}) {
      ScolOptions options;
      options.group_size = group_size;
      SnapshotTable decoded;
      ASSERT_TRUE(
          decode_scol(encode_scol(original, options), &decoded, options)
              .ok());
      const SnapshotTable reference = add_reference(original, group_size);
      expect_tables_equal(reference, decoded);
      EXPECT_EQ(decoded.memory_bytes(), reference.memory_bytes())
          << "seed " << seed << " group size " << group_size;
    }
  }
}

std::uint64_t get_le64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

void put_le64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Column ids and block framing as scol.h documents them: each block is
// {u8 id, u8 encoding, u64 size, u64 checksum, payload}.
constexpr std::uint8_t kPathsColumn = 1;
constexpr std::uint8_t kInodeColumn = 8;
constexpr std::size_t kBlockHeader = 18;

/// Offset of column `id`'s block header inside group `g` of a v2 image.
std::size_t column_block(const std::vector<std::uint8_t>& image,
                         std::size_t g, std::uint8_t id) {
  ScolV2Layout layout;
  EXPECT_TRUE(parse_scol_v2_layout(image, &layout).ok());
  std::size_t pos = layout.group_begin[g] + 1;  // skip the column count
  while (image[pos] != id) pos += kBlockHeader + get_le64(image, pos + 2);
  return pos;
}

/// Replaces the paths payload of the single-group image `image` with
/// `payload` (checksum and group directory updated to match), so the path
/// decoder itself sees the malformed bytes.
std::vector<std::uint8_t> with_paths_payload(
    const std::vector<std::uint8_t>& image,
    const std::vector<std::uint8_t>& payload) {
  const std::size_t block = column_block(image, 0, kPathsColumn);
  const std::size_t old_size = get_le64(image, block + 2);
  std::vector<std::uint8_t> out(image.begin(),
                                image.begin() + static_cast<std::ptrdiff_t>(
                                                    block + kBlockHeader));
  put_le64(out, block + 2, payload.size());
  put_le64(out, block + 10,
           hash_bytes(std::string_view(
               reinterpret_cast<const char*>(payload.data()), payload.size())));
  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(),
             image.begin() +
                 static_cast<std::ptrdiff_t>(block + kBlockHeader + old_size),
             image.end());
  // Directory entry of group 0: {u64 rows, u64 bytes} after the 32-byte
  // header.
  put_le64(out, 40, get_le64(image, 40) + payload.size() - old_size);
  return out;
}

void expect_untouched(const SnapshotTable& before_copy,
                      std::size_t before_bytes, const SnapshotTable& after) {
  expect_tables_equal(before_copy, after);
  EXPECT_EQ(after.memory_bytes(), before_bytes);
}

TEST(ScolPathDecodeTest, MalformedPathsKeepTheirStatusAndTouchNothing) {
  struct Case {
    std::vector<std::uint8_t> payload;  // front-coded, 3 rows
    StatusCode code;
    std::string message;
  };
  const std::vector<Case> cases = {
      // Row 1 claims 9 shared bytes of a 3-byte predecessor.
      {{0, 3, '/', 'a', 'b', 9, 1, 'c'},
       StatusCode::kCorruption,
       "paths: bad shared length"},
      // Row 0 promises a 50-byte suffix and holds 3.
      {{0, 50, '/', 'a', 'b'},
       StatusCode::kTruncated,
       "paths: truncated suffix bytes"},
      // Row 1 ends after its shared length.
      {{0, 1, '/', 1},
       StatusCode::kTruncated,
       "paths: truncated suffix length"},
  };
  const SnapshotTable original = make_table(3);
  const auto image = encode_scol(original, ScolOptions{});
  for (const Case& c : cases) {
    const auto bad = with_paths_payload(image, c.payload);

    SnapshotTable out = make_table(5, /*seed=*/99);
    const SnapshotTable before = out.clone();
    const std::size_t before_bytes = out.memory_bytes();
    const Status s = decode_scol(bad, &out, ScolOptions{});
    EXPECT_EQ(s.code(), c.code) << s.to_string();
    EXPECT_EQ(s.message(), "group 0: " + c.message);
    expect_untouched(before, before_bytes, out);

    ScolGroupReader reader;
    ASSERT_TRUE(reader.open_bytes(bad, ScolOptions{}).ok());
    const Status g = reader.decode_group(0, &out);
    EXPECT_EQ(g.code(), c.code);
    EXPECT_EQ(g.message(), c.message);
    expect_untouched(before, before_bytes, out);
  }
}

TEST(ScolPathDecodeTest, SkippedGroupLeavesNoBytesBehind) {
  // Group 1's paths decode cleanly into the group-local arena; its inode
  // block then fails on an encoding byte (outside the checksum), so the
  // group is dropped after its paths were already materialized.
  constexpr std::size_t kRows = 12, kSize = 4;
  const SnapshotTable original = make_chain_table(kRows, 9);
  ScolOptions options;
  options.group_size = kSize;
  auto image = encode_scol(original, options);
  image[column_block(image, 1, kInodeColumn) + 1] = 0xee;

  options.on_corrupt_group = CorruptGroupPolicy::kSkip;
  SnapshotTable decoded;
  SalvageReport report;
  ASSERT_TRUE(decode_scol(image, &decoded, options, &report).ok());
  ASSERT_EQ(report.groups_lost, 1u);
  ASSERT_EQ(report.damage[0].group, 1u);
  EXPECT_EQ(report.damage[0].status.message(), "bad inode encoding");

  const SnapshotTable reference = add_reference(original, kSize, {1});
  expect_tables_equal(reference, decoded);
  EXPECT_EQ(decoded.memory_bytes(), reference.memory_bytes());
}

}  // namespace
}  // namespace spider

#include "snapshot/record.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/prng.h"

namespace spider {
namespace {

/// The branchy reference: one state transition per byte.
std::size_t depth_oracle(std::string_view path) {
  std::size_t depth = 0;
  bool in_component = false;
  for (char c : path) {
    if (c == '/') {
      in_component = false;
    } else if (!in_component) {
      in_component = true;
      ++depth;
    }
  }
  return depth;
}

/// Random paths over a tiny alphabet, so repeated, leading and trailing
/// slashes are common.
std::string random_path(Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] = {'/', '/', '/', 'a', 'b', '.'};
  std::string p(rng.uniform_u64(max_len + 1), '/');
  for (char& c : p) c = kAlphabet[rng.uniform_u64(sizeof(kAlphabet))];
  return p;
}

TEST(PathDepthTest, MatchesTheBranchyOracle) {
  std::vector<std::string> paths = {"", "/", "//a//b/", "a", "a/", "/a",
                                    "a//", "///", "/lustre/atlas2/p/u/f"};
  std::string chain;
  for (int i = 0; i < 2000; ++i) chain += "/d" + std::to_string(i);
  paths.push_back(chain);
  paths.push_back(chain + "/");
  paths.push_back(chain.substr(1));
  Rng rng(2017);
  for (int i = 0; i < 2000; ++i) paths.push_back(random_path(rng, 40));
  for (const std::string& p : paths) {
    EXPECT_EQ(path_depth(p), depth_oracle(p)) << '"' << p << '"';
  }
  EXPECT_EQ(path_depth(chain), 2000u);
}

// The front-coded decoder's identity: for two paths sharing their first
// `shared` bytes, depth(b) = depth(a) - starts(a, shared) + starts(b,
// shared) — the prefix's starts are common to both.
TEST(PathDepthTest, ComponentStartsSplitAtAnySharedPrefix) {
  Rng rng(15);
  for (int i = 0; i < 5000; ++i) {
    const std::string a = random_path(rng, 24);
    const std::size_t shared = rng.uniform_u64(a.size() + 1);
    const std::string b = a.substr(0, shared) + random_path(rng, 12);
    ASSERT_EQ(path_component_starts(a, 0), depth_oracle(a));
    ASSERT_EQ(depth_oracle(b), depth_oracle(a) -
                                   path_component_starts(a, shared) +
                                   path_component_starts(b, shared))
        << '"' << a << "\" -> \"" << b << "\" shared=" << shared;
  }
  EXPECT_EQ(path_component_starts("/a/b", 4), 0u);
  EXPECT_EQ(path_component_starts("/a/b", 3), 1u);   // 'b' after '/'
  EXPECT_EQ(path_component_starts("/ab", 2), 0u);    // mid-component
}

TEST(PathDepthTest, CountsComponents) {
  EXPECT_EQ(path_depth("/"), 0u);
  EXPECT_EQ(path_depth(""), 0u);
  EXPECT_EQ(path_depth("/a"), 1u);
  EXPECT_EQ(path_depth("/a/b/c"), 3u);
  EXPECT_EQ(path_depth("/lustre/atlas2/cli101/u0042/run1/out.nc"), 6u);
  // Repeated and trailing slashes do not create components.
  EXPECT_EQ(path_depth("//a//b/"), 2u);
}

TEST(PathComponentTest, Indexing) {
  const std::string_view p = "/lustre/atlas2/cli101/u0042/run1/out.nc";
  EXPECT_EQ(path_component(p, 0), "lustre");
  EXPECT_EQ(path_component(p, 1), "atlas2");
  EXPECT_EQ(path_component(p, 2), "cli101");
  EXPECT_EQ(path_component(p, 3), "u0042");
  EXPECT_EQ(path_component(p, 5), "out.nc");
  EXPECT_EQ(path_component(p, 6), "");
  EXPECT_EQ(path_project(p), "cli101");
  EXPECT_EQ(path_user(p), "u0042");
}

TEST(PathBasenameTest, Variants) {
  EXPECT_EQ(path_basename("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(path_basename("/a/b/"), "b");
  EXPECT_EQ(path_basename("/"), "");
  EXPECT_EQ(path_basename("plain"), "plain");
}

TEST(PathParentTest, Variants) {
  EXPECT_EQ(path_parent("/a/b/c"), "/a/b");
  EXPECT_EQ(path_parent("/a"), "/");
  EXPECT_EQ(path_parent("/"), "/");
  EXPECT_EQ(path_parent("/a/b/"), "/a");
}

TEST(PathExtensionTest, PaperConventions) {
  EXPECT_EQ(path_extension("/p/u/data.nc"), "nc");
  EXPECT_EQ(path_extension("/p/u/x.tar.gz"), "gz");
  // Numeric suffixes are extensions in the paper's counting.
  EXPECT_EQ(path_extension("/p/u/result.1"), "1");
  // Checkpoint-style names with embedded dots.
  EXPECT_EQ(path_extension("/p/u/f.00000245"), "00000245");
  // No extension cases.
  EXPECT_EQ(path_extension("/p/u/README"), "");
  EXPECT_EQ(path_extension("/p/u/.bashrc"), "");
  EXPECT_EQ(path_extension("/p/u/trailingdot."), "");
  // Case is preserved.
  EXPECT_EQ(path_extension("/p/u/graph.GraphGeod"), "GraphGeod");
}

TEST(ModeTest, TypeBits) {
  EXPECT_TRUE(mode_is_regular(kModeRegular | 0644));
  EXPECT_FALSE(mode_is_dir(kModeRegular | 0644));
  EXPECT_TRUE(mode_is_dir(kModeDirectory | 0755));
  EXPECT_FALSE(mode_is_regular(kModeDirectory | 0755));
  RawRecord rec;
  rec.mode = kModeDirectory | 0775;
  EXPECT_TRUE(rec.is_dir());
}

}  // namespace
}  // namespace spider

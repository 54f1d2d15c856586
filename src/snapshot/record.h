// The LustreDU snapshot record model (paper Figure 2) and path helpers.
//
// A snapshot record carries: PATH, ATIME, CTIME, MTIME, UID, GID, MODE,
// INODE, and the OST list a file is striped across. File size is absent by
// design — the paper's collector omits it because obtaining sizes in Lustre
// requires querying every OSS holding a stripe.
//
// Synthetic paths follow the Spider II convention the paper describes:
//   /lustre/atlas2/<project>/<user>/<subdirs...>/<file>
// so the project directory is path component 2 and the user directory is
// component 3 (0-based). Depth is the number of '/'-separated components;
// files therefore start at depth 5, which produces the "knee at five" the
// paper notes in its directory-depth CDF (Fig 8(a)).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spider {

/// POSIX file-type bits (subset used by the study).
inline constexpr std::uint32_t kModeTypeMask = 0170000;
inline constexpr std::uint32_t kModeRegular = 0100000;
inline constexpr std::uint32_t kModeDirectory = 0040000;

inline constexpr bool mode_is_dir(std::uint32_t mode) {
  return (mode & kModeTypeMask) == kModeDirectory;
}
inline constexpr bool mode_is_regular(std::uint32_t mode) {
  return (mode & kModeTypeMask) == kModeRegular;
}

/// Index of the path component that names the project / user directory.
inline constexpr std::size_t kProjectComponent = 2;
inline constexpr std::size_t kUserComponent = 3;

/// One snapshot record in row form; used at API boundaries (builders,
/// format readers). Bulk storage lives in SnapshotTable's columns.
struct RawRecord {
  std::string path;
  std::int64_t atime = 0;
  std::int64_t ctime = 0;
  std::int64_t mtime = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t mode = kModeRegular | 0664;
  std::uint64_t inode = 0;
  std::vector<std::uint32_t> osts;

  bool is_dir() const { return mode_is_dir(mode); }
};

/// Number of components of `path` that begin at or after byte `from`: the
/// non-'/' bytes whose predecessor is '/' (or that open the path). A
/// component's start depends only on its own byte and the one before it,
/// so a front-coded decoder derives a path's depth from its predecessor's
/// by subtracting the starts in the dropped tail and adding those in the
/// new suffix. Branch-free over bytes, so the loop vectorizes.
std::size_t path_component_starts(std::string_view path, std::size_t from);

/// Number of '/'-separated components ("/a/b/c" -> 3). Trailing slashes and
/// repeated slashes are ignored. The root path "/" has depth 0.
inline std::size_t path_depth(std::string_view path) {
  return path_component_starts(path, 0);
}

/// The idx-th (0-based) '/'-separated component, or empty if out of range.
std::string_view path_component(std::string_view path, std::size_t idx);

/// Final component ("/a/b/c.txt" -> "c.txt").
std::string_view path_basename(std::string_view path);

/// Everything before the final component ("/a/b/c" -> "/a/b"); "/" for
/// top-level entries.
std::string_view path_parent(std::string_view path);

/// File extension of the basename, without the dot ("x.tar.gz" -> "gz").
/// Follows the paper's literal convention: numeric suffixes are extensions
/// too ("result.1" -> "1"), dotfiles (".bashrc") and dotless names have no
/// extension. Case is preserved ("POSCAR" conventions matter).
std::string_view path_extension(std::string_view path);

/// Project directory name for a canonical Spider path, or empty.
inline std::string_view path_project(std::string_view path) {
  return path_component(path, kProjectComponent);
}

/// User directory name for a canonical Spider path, or empty.
inline std::string_view path_user(std::string_view path) {
  return path_component(path, kUserComponent);
}

}  // namespace spider

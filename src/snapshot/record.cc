#include "snapshot/record.h"

namespace spider {

std::size_t path_component_starts(std::string_view path, std::size_t from) {
  const auto* p = reinterpret_cast<const unsigned char*>(path.data());
  const std::size_t n = path.size();
  std::size_t starts = 0;
  std::size_t i = from;
  if (i == 0) {
    if (n == 0) return 0;
    starts = p[0] != '/';
    i = 1;
  }
  for (; i < n; ++i) starts += (p[i] != '/') & (p[i - 1] == '/');
  return starts;
}

std::string_view path_component(std::string_view path, std::size_t idx) {
  std::size_t current = 0;
  std::size_t begin = std::string_view::npos;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    const bool sep = i == path.size() || path[i] == '/';
    if (!sep && begin == std::string_view::npos) {
      begin = i;
    } else if (sep && begin != std::string_view::npos) {
      if (current == idx) return path.substr(begin, i - begin);
      ++current;
      begin = std::string_view::npos;
    }
  }
  return {};
}

std::string_view path_basename(std::string_view path) {
  // Ignore trailing slashes.
  std::size_t end = path.size();
  while (end > 0 && path[end - 1] == '/') --end;
  std::size_t begin = end;
  while (begin > 0 && path[begin - 1] != '/') --begin;
  return path.substr(begin, end - begin);
}

std::string_view path_parent(std::string_view path) {
  std::size_t end = path.size();
  while (end > 0 && path[end - 1] == '/') --end;
  while (end > 0 && path[end - 1] != '/') --end;
  while (end > 1 && path[end - 1] == '/') --end;
  if (end == 0) return path.empty() ? std::string_view{} : path.substr(0, 1);
  return path.substr(0, end);
}

std::string_view path_extension(std::string_view path) {
  // Single right-to-left scan: the first '.' seen before a '/' is the
  // basename's last dot (this is the group-by hot path — one pass, not
  // basename + rfind).
  std::size_t end = path.size();
  while (end > 0 && path[end - 1] == '/') --end;
  std::size_t i = end;
  while (i > 0 && path[i - 1] != '/' && path[i - 1] != '.') --i;
  if (i == 0 || path[i - 1] != '.') return {};     // no dot in the basename
  if (i == end) return {};                         // trailing dot
  if (i - 1 == 0 || path[i - 2] == '/') return {};  // leading-dot basename
  return path.substr(i, end - i);
}

}  // namespace spider

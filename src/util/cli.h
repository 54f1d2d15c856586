// Minimal command-line flag parsing for the bench harnesses and examples.
//
// Supports --key=value, --key value, and bare boolean --key forms, plus
// positional arguments. Unknown flags are collected rather than fatal so
// harnesses can share common options; a tool with a fixed flag set asks
// unknown() and rejects a misspelled flag instead of silently ignoring it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace spider {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Flags given on the command line that are not in `known`, in name
  /// order (without the leading "--").
  std::vector<std::string> unknown(
      std::initializer_list<std::string_view> known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace spider

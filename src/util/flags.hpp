/// \file flags.hpp
/// Tiny declarative command-line flag parser for bench harnesses and examples.
///
/// Supports `--name=value`, `--name value`, and boolean `--name` /
/// `--no-name`.  Unknown flags are an error so typos surface immediately;
/// `--help` prints registered flags with defaults and descriptions.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsce::util {

class Flags {
 public:
  /// \p program_doc is printed at the top of --help output.
  explicit Flags(std::string program_doc) : doc_(std::move(program_doc)) {}

  /// Registers a flag bound to \p target (which holds the default value).
  void add(std::string_view name, std::int64_t* target, std::string_view help);
  void add(std::string_view name, double* target, std::string_view help);
  void add(std::string_view name, bool* target, std::string_view help);
  void add(std::string_view name, std::string* target, std::string_view help);

  /// Parses argv.  Returns false (after printing help or an error to
  /// stderr/stdout) when the caller should exit.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// Positional arguments remaining after flag parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Entry {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_repr;
  };

  void print_help() const;
  Entry* find(std::string_view name);
  static bool assign(Entry& entry, std::string_view value);

  std::string doc_;
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

/// Range check for an integer count flag, run before the caller casts it to
/// size_t: when \p value < \p min, prints "error: --<flag> must be >= <min>"
/// to stderr and returns false.
[[nodiscard]] bool flag_at_least(std::string_view flag, std::int64_t value,
                                 std::int64_t min);

}  // namespace tsce::util

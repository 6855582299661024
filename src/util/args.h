// Minimal command-line argument parser for the tools/ binaries.
//
// Supports subcommand-style CLIs: positional arguments plus --key=value /
// --key value options and --flag switches. No external dependencies; the
// grammar is intentionally tiny but the error messages are real.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace kcore::util {

class Args {
 public:
  /// Parse argv[1..); throws CheckError on malformed input ("--=x").
  Args(int argc, const char* const* argv);

  /// Construct from a plain vector (tests).
  explicit Args(std::vector<std::string> tokens);

  /// Positional arguments in order (everything not starting with "--").
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True if --name was given (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of --name; nullopt if absent or valueless.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Typed getters with defaults; throw CheckError when present but
  /// unparsable (silently ignoring a typo would corrupt an experiment).
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// get_int() bounds-checked to [0, max] BEFORE the caller's unsigned
  /// cast: `--hosts -1` must die with a message naming the flag, not wrap
  /// to 4e9 and fail far from the command line.
  [[nodiscard]] std::int64_t get_checked(const std::string& name,
                                         std::int64_t fallback,
                                         std::int64_t max) const;

  /// Option names that were provided but never queried — surfacing typos.
  /// Call after all get()/has() uses.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  void parse(const std::vector<std::string>& tokens);

  std::vector<std::string> positional_;
  std::map<std::string, std::optional<std::string>> options_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace kcore::util

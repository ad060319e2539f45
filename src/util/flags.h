// Tiny command-line flag parser for examples and benchmark binaries.
//
// Accepts `--name=value` and `--name value`; bare `--name` is treated as the
// boolean true. Positional arguments are collected in order. Unknown flags
// are an error only when the caller asks for strict validation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/error.h"

namespace ccdn {

/// A flag's value is malformed or outside the range its reader accepts: a
/// usage error, which the command-line tools report with exit status 2.
class FlagError : public ParseError {
 public:
  using ParseError::ParseError;
};

class Flags {
 public:
  /// Parse argv (argv[0] is skipped). Throws ParseError on malformed input.
  Flags(int argc, const char* const* argv);

  /// Construct from pre-split tokens (useful in tests).
  explicit Flags(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters with defaults. Throw FlagError, naming the flag, when
  /// the stored value cannot be converted.
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// get_int for a value in [min, max]; any other value throws FlagError
  /// naming the flag and the range. The fallback is not checked.
  [[nodiscard]] std::int64_t get_int_in(const std::string& name,
                                        std::int64_t fallback,
                                        std::int64_t min,
                                        std::int64_t max) const;
  /// get_double for a value in (above, at_most]; any other value, NaN
  /// included, throws FlagError naming the flag and the range.
  [[nodiscard]] double get_double_in(const std::string& name, double fallback,
                                     double above, double at_most) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names of flags that were set but never read; call after all getters to
  /// report typos to the user.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  void parse(const std::vector<std::string>& tokens);
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> accessed_;
  std::vector<std::string> positional_;
};

}  // namespace ccdn

#ifndef HETKG_COMMON_FLAGS_H_
#define HETKG_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hetkg {

/// Minimal command-line flag parser for the bench/example binaries.
/// Accepts `--name=value` and `--name value`; a bare `--name` is treated
/// as a boolean true. Unknown flags are an error so typos surface
/// immediately.
class FlagParser {
 public:
  /// Registers a flag with its default value and help text. Must be
  /// called before Parse().
  void Define(std::string name, std::string default_value, std::string help);

  /// Parses argv; returns InvalidArgument on unknown flags or malformed
  /// syntax. Positional arguments are rejected.
  Status Parse(int argc, char** argv);

  /// Typed accessors; CHECK-fail on flags that were never Define()d,
  /// which catches programming errors in the bench code itself.
  std::string GetString(std::string_view name) const;
  int64_t GetInt(std::string_view name) const;
  double GetDouble(std::string_view name) const;
  bool GetBool(std::string_view name) const;

  /// Like the Get* accessors, but a value that does not parse is
  /// InvalidArgument naming the flag instead of a CHECK failure.
  Result<int64_t> TryGetInt(std::string_view name) const;
  Result<double> TryGetDouble(std::string_view name) const;
  Result<bool> TryGetBool(std::string_view name) const;

  /// True when the user explicitly supplied the flag (vs default).
  bool IsSet(std::string_view name) const;

  /// Renders the registered flags and defaults as a usage string.
  std::string Usage(std::string_view program) const;

 private:
  struct FlagInfo {
    std::string value;
    std::string default_value;
    std::string help;
    bool set = false;
  };
  const FlagInfo& Lookup(std::string_view name) const;

  std::map<std::string, FlagInfo, std::less<>> flags_;
};

}  // namespace hetkg

#endif  // HETKG_COMMON_FLAGS_H_

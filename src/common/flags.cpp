#include "common/flags.h"

#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace hetkg {

void FlagParser::Define(std::string name, std::string default_value,
                        std::string help) {
  FlagInfo info;
  info.value = default_value;
  info.default_value = std::move(default_value);
  info.help = std::move(help);
  flags_[std::move(name)] = std::move(info);
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("positional argument not supported: " +
                                     std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      // `--flag value` form, unless the next token is another flag or
      // missing, in which case the flag is boolean true.
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    it->second.value = std::move(value);
    it->second.set = true;
  }
  return Status::OK();
}

const FlagParser::FlagInfo& FlagParser::Lookup(std::string_view name) const {
  auto it = flags_.find(name);
  HETKG_CHECK(it != flags_.end()) << "flag not defined: " << name;
  return it->second;
}

std::string FlagParser::GetString(std::string_view name) const {
  return Lookup(name).value;
}

Result<int64_t> FlagParser::TryGetInt(std::string_view name) const {
  int64_t v = 0;
  const std::string& raw = Lookup(name).value;
  if (!ParseInt64(raw, &v)) {
    return Status::InvalidArgument("flag --" + std::string(name) +
                                   " is not an integer: " + raw);
  }
  return v;
}

Result<double> FlagParser::TryGetDouble(std::string_view name) const {
  double v = 0.0;
  const std::string& raw = Lookup(name).value;
  if (!ParseDouble(raw, &v)) {
    return Status::InvalidArgument("flag --" + std::string(name) +
                                   " is not a double: " + raw);
  }
  return v;
}

Result<bool> FlagParser::TryGetBool(std::string_view name) const {
  const std::string& raw = Lookup(name).value;
  if (raw == "true" || raw == "1") return true;
  if (raw == "false" || raw == "0") return false;
  return Status::InvalidArgument("flag --" + std::string(name) +
                                 " is not a boolean: " + raw);
}

namespace {

template <typename T>
T ValueOrDie(Result<T> result) {
  HETKG_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

}  // namespace

int64_t FlagParser::GetInt(std::string_view name) const {
  return ValueOrDie(TryGetInt(name));
}

bool FlagParser::GetBool(std::string_view name) const {
  return ValueOrDie(TryGetBool(name));
}

bool FlagParser::IsSet(std::string_view name) const {
  return Lookup(name).set;
}

std::string FlagParser::Usage(std::string_view program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& [name, info] : flags_) {
    os << "  --" << name << " (default: " << info.default_value << ")  "
       << info.help << "\n";
  }
  return os.str();
}

}  // namespace hetkg

#include "common/proc_stats.h"

#include <cstdio>
#include <cstring>

namespace hetkg {

namespace {

/// Parses one "Vm...:  <kB> kB" line from /proc/self/status.
uint64_t ReadStatusKb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      std::sscanf(line + field_len, " %lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

}  // namespace

uint64_t CurrentRssBytes() { return ReadStatusKb("VmRSS:") * 1024; }

}  // namespace hetkg

#ifndef HETKG_COMMON_PROC_STATS_H_
#define HETKG_COMMON_PROC_STATS_H_

#include <cstdint>

namespace hetkg {

/// Resident-set size of the calling process in bytes (Linux: VmRSS of
/// /proc/self/status). 0 when the platform offers no cheap way to read
/// it. Feeds the `mem.rss_bytes` gauge of tiered-storage runs and the
/// RSS column of the scaling benches.
uint64_t CurrentRssBytes();

}  // namespace hetkg

#endif  // HETKG_COMMON_PROC_STATS_H_

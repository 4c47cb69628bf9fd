#ifndef VERO_PERFBENCH_CLOCK_H_
#define VERO_PERFBENCH_CLOCK_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// Real-clock reading of this process: wall time plus the getrusage
/// counters. Take one before and one after a call; the difference is what
/// the call cost the host (user and sys CPU summed over every thread).
struct ClockSample {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  /// Peak resident set size (VmHWM) since the last ResetPeakRss, or over
  /// the process lifetime, in kilobytes. A high-water mark, so a
  /// difference keeps the later reading.
  int64_t peak_rss_kb = 0;

  static ClockSample Now() {
    ClockSample s;
    s.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    s.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
    s.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
    s.minor_faults = usage.ru_minflt;
    s.peak_rss_kb = usage.ru_maxrss;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        s.peak_rss_kb = std::strtoll(line.c_str() + 6, nullptr, 10);
      }
    }
    return s;
  }

  ClockSample operator-(const ClockSample& before) const {
    ClockSample d;
    d.wall_s = wall_s - before.wall_s;
    d.user_s = user_s - before.user_s;
    d.sys_s = sys_s - before.sys_s;
    d.minor_faults = minor_faults - before.minor_faults;
    d.peak_rss_kb = peak_rss_kb;
    return d;
  }

  double cpu_s() const { return user_s + sys_s; }
};

/// Lowers the process's peak-RSS watermark to its current RSS (Linux
/// clear_refs "5"), so the next ClockSample reports the peak since now.
/// Where the kernel refuses, the watermark stays the lifetime peak.
inline void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Wall seconds since an arbitrary fixed point (for phase budgets).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1]; 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

}  // namespace perfbench

#endif  // VERO_PERFBENCH_CLOCK_H_

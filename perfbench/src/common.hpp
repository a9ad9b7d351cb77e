#pragma once

// Shared plumbing of the repository benchmark: the run configuration, the
// outcome every workload fills in, timing and order statistics.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/driver.hpp"

namespace perfbench {

/// Seed whose fig10_sweep table digest is pinned (the paper grid's seed
/// base, as in bench/micro_sweep).
inline constexpr uint64_t kDefaultSeed = 1000;

struct Config {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny grids and kernels for the benchmark's self-test; never used for
  /// a measurement.
  bool smoke = false;
  /// Directory for the traced run's span file (empty: not written).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `end_to_end` is printed with tracing
/// off, `per_layer` with tracing on; `report` holds the workload's own
/// headline figures, printed by name above the result line.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatches, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report;
  std::vector<std::pair<std::string, std::string>> facts;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The gated pass time. A pass is cut into fixed chunks of a few
/// milliseconds (one (model, seed) sub-sweep, one co-simulation, one
/// kernel step); the run keeps each chunk's fastest wall time over all its
/// passes, and `pass_s` is their sum: what one pass takes on a core that
/// nothing else slows. On a shared 4-vCPU cloud VM each vCPU flips, every
/// few hundred milliseconds, between full speed and ~1.6x slower, and the
/// slow share drifts for minutes: over ten 35 s runs of a 400-spec Fig. 10
/// sweep the median pass ranged over 0.39-0.54 s and the fastest over
/// 0.28-0.49 s, while the sum of chunk minima of nine runs stayed within
/// 0.274-0.292 s. The slowdown is in user time, so CPU time does not
/// remove it, and no fixed reference kernel slowed by the same factor as
/// the library's code.
class ChunkMinima {
 public:
  void add(size_t chunk, double seconds) {
    if (best_.size() <= chunk) best_.resize(chunk + 1, HUGE_VAL);
    best_[chunk] = std::min(best_[chunk], seconds);
  }
  double pass_s() const {
    double total = 0.0;
    for (const double s : best_) total += s;
    return total;
  }
  size_t chunks() const { return best_.size(); }

 private:
  std::vector<double> best_;
};

/// Moves the calling thread round robin over the CPUs it may run on, one
/// step per next(), and gives it back its affinity when destroyed. Each
/// vCPU of a shared host is slowed on its own (see ChunkMinima), and the
/// kernel leaves a lone busy thread where it is, so without this a run
/// could spend every pass on a vCPU that stays slow throughout.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t at_ = 0;
};

/// "min q1 median q3 max" of a sample, for the run log.
std::string quartiles(const std::vector<double>& v);

/// The highest of the standard percentiles (99, 95, 90, 75, 50) that has
/// at least ten samples beyond it in a sample of `n`.
inline int reportable_percentile(size_t n) {
  for (const int p : {99, 95, 90, 75}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident set of this process, in MB (getrusage, no file reads).
double peak_rss_mb();

/// Byte-exact digest of a result table: murmur-128 over every cell's
/// encode_result bytes, as 32 hex digits.
std::string table_digest(const std::vector<cuttlefish::exp::RunResult>& t);

/// Cell-by-cell oracle: counts cells whose encode_result bytes differ
/// from the reference (a size mismatch counts every missing cell). Each
/// mismatch is recorded on `out` under `label`.
uint64_t compare_tables(const std::vector<cuttlefish::exp::RunResult>& got,
                        const std::vector<cuttlefish::exp::RunResult>& want,
                        const std::string& label, Outcome* out);

/// Host facts recorded with every run: nproc, LLC size, build type.
void record_host_facts(Outcome* out);
size_t llc_bytes();

}  // namespace perfbench

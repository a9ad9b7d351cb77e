#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string table_digest(const std::vector<cuttlefish::exp::RunResult>& t) {
  std::string bytes;
  for (const auto& r : t) bytes += cuttlefish::exp::encode_result(r);
  const cuttlefish::exp::SpecDigest d =
      cuttlefish::exp::digest_bytes(bytes.data(), bytes.size());
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, d.hi, d.lo);
  return buf;
}

uint64_t compare_tables(const std::vector<cuttlefish::exp::RunResult>& got,
                        const std::vector<cuttlefish::exp::RunResult>& want,
                        const std::string& label, Outcome* out) {
  uint64_t bad = 0;
  const size_t n = std::max(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    const bool same =
        i < got.size() && i < want.size() &&
        cuttlefish::exp::encode_result(got[i]) ==
            cuttlefish::exp::encode_result(want[i]);
    if (!same) {
      ++bad;
      out->fail(label + ": cell " + std::to_string(i) +
                " differs from the oracle");
    }
  }
  return bad;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (at_ != 0) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_ % cpus_.size()], &one);
  ++at_;
  sched_setaffinity(0, sizeof(one), &one);
}

std::string quartiles(const std::vector<double>& v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.4g %.4g %.4g %.4g %.4g", quantile(v, 0),
                quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75),
                quantile(v, 1));
  return buf;
}

size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<size_t>(l2) : 0;
}

void record_host_facts(Outcome* out) {
  out->fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  out->fact("llc_bytes", std::to_string(llc_bytes()));
  out->fact("build_type", PERFBENCH_BUILD_TYPE);
}

// ---- per-layer metric template ----------------------------------------------

std::vector<Metric> per_layer_template() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      // workloads / exp: program build and calibration
      {"workloads.build_program.self_s", "s"},
      {"exp.calibrate.calls", "count"},
      {"exp.calibrate.self_s", "s"},
      {"sim.program.ops", "count"},
      // sim
      {"sim.advance.calls", "count"},
      {"sim.advance.self_s", "s"},
      {"sim.advance.ns_p50", "ns"},
      {"sim.advance.ns_p99", "ns"},
      {"sim.governor.tick.calls", "count"},
      {"sim.governor.tick.self_s", "s"},
      // core
      {"core.tick.calls", "count"},
      {"core.tick.self_s", "s"},
      {"core.tick.ns_p50", "ns"},
      {"core.tick.ns_p99", "ns"},
      {"core.begin.self_s", "s"},
      {"core.samples_recorded", "count"},
      {"core.freq_writes", "count"},
      {"core.transitions", "count"},
      {"core.nodes_inserted", "count"},
      {"core.daemon.ticks_per_s", "1/s"},
      {"core.daemon.gap_p99_ms", "ms"},
      // hal
      {"hal.sample.calls", "count"},
      {"hal.sample.self_s", "s"},
      {"hal.apply.calls", "count"},
      {"hal.apply.self_s", "s"},
      {"hal.apply.changed", "count"},
      // exp
      {"exp.run_spec.calls", "count"},
      {"exp.run_spec.ms_p50", "ms"},
      {"exp.run_spec.ms_p99", "ms"},
      {"exp.codec.encode_ns", "ns"},
      {"exp.codec.decode_ns", "ns"},
      {"exp.result.bytes", "bytes"},
      // runtime
      {"runtime.tasks", "count"},
      {"runtime.steals", "count"},
      {"runtime.steal_attempts", "count"},
      {"runtime.parks", "count"},
      {"runtime.slab_blocks", "count"},
      {"runtime.heap_fallbacks", "count"},
      {"runtime.step.bare_ms_p50", "ms"},
      {"runtime.speedup_vs_seq", "ratio"},
      // the traced account itself
      {"layer.workloads.self_s", "s"},
      {"layer.exp.self_s", "s"},
      {"layer.sim.self_s", "s"},
      {"layer.core.self_s", "s"},
      {"layer.hal.self_s", "s"},
      {"trace.wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.rebuild_mismatches", "count"},
      {"trace.valid", "count"},
  };
  std::vector<Metric> out;
  out.reserve(kMetrics.size());
  for (const auto& [name, unit] : kMetrics) out.push_back({name, 0.0, unit});
  return out;
}

void set_metric(std::vector<Metric>* metrics, const std::string& name,
                double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

}  // namespace perfbench

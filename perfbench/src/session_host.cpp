// session_host: the paper's "savings for free" claim. A real Jacobi heat
// kernel (irregular task DAG) runs on a TaskScheduler; bare passes and
// passes under a live daemon Session over a RealtimeSimPlatform alternate
// within one run, and every pass's checksum is checked against
// heat_step_seq.

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/realtime.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/kernels/stencil.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace cuttlefish;

namespace {

constexpr int64_t kGridSide = 2049;  // two grids: 67 MB of doubles
constexpr int64_t kSmokeGridSide = 129;
constexpr int kSteps = 80;
constexpr int kSmokeSteps = 4;

/// The simulated package advances at 20 virtual seconds per wall second;
/// Tinv is scaled down by the same factor (1 ms wall = the paper's 20 ms
/// virtual), as in examples/heat_stencil.
constexpr double kRate = 20.0;

/// Kernel workers: the daemon and the simulator thread take one CPU each,
/// so kernel + daemon + simulator threads stay within nproc.
int kernel_workers() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n - 2, 1, 2);
}

/// Deterministic initial state from the seed: hot top edge, random
/// interior in [0, 100).
void fill(workloads::Grid2D& g, uint64_t seed) {
  SplitMix64 rng(seed);
  for (int64_t r = 0; r < g.rows(); ++r) {
    for (int64_t c = 0; c < g.cols(); ++c) {
      g.at(r, c) = 100.0 * rng.next_double();
    }
  }
  g.set_boundary(0.0);
  for (int64_t c = 0; c < g.cols(); ++c) g.at(0, c) = 100.0;
}

struct Host {
  std::unique_ptr<sim::MachineConfig> machine;
  sim::PhaseProgram profile;
  std::unique_ptr<exp::RealtimeSimPlatform> platform;
  std::unique_ptr<runtime::TaskScheduler> tasks;
  std::unique_ptr<workloads::Grid2D> a;
  std::unique_ptr<workloads::Grid2D> b;
  int64_t build_program_ns = 0;
  int64_t calibrate_ns = 0;
};

Options session_options() {
  Options o;
  o.controller.tinv_s = 0.020 / kRate;
  o.controller.warmup_s = 2.0 / kRate;
  o.daemon_cpu = -1;
  return o;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<double> step_ms;
  bool ok = false;
};

/// One kernel pass from the seed's initial state; `platform` non-null runs
/// it under a live session over that platform.
Pass kernel_pass(Host& h, uint64_t seed, int steps, double want,
                 hal::PlatformInterface* platform) {
  fill(*h.a, seed);
  fill(*h.b, seed);
  std::unique_ptr<Session> session;
  if (platform != nullptr) {
    session = std::make_unique<Session>(*platform, session_options());
  }
  Pass p;
  p.step_ms.reserve(static_cast<size_t>(steps));
  const int64_t t0 = now_ns();
  int64_t ts = t0;
  for (int s = 0; s < steps; ++s) {
    workloads::heat_step_tasks(*h.tasks, *h.a, *h.b,
                               runtime::DagShape::kIrregular);
    std::swap(h.a, h.b);
    const int64_t te = now_ns();
    p.step_ms.push_back(static_cast<double>(te - ts) * 1e-6);
    ts = te;
  }
  p.wall_s = static_cast<double>(ts - t0) * 1e-9;
  if (session) session->stop();
  const double got = h.a->checksum();
  p.ok = std::memcmp(&got, &want, sizeof(got)) == 0;
  return p;
}

}  // namespace

Outcome run_session_host(const Config& cfg) {
  Outcome out;
  const int64_t side = cfg.smoke ? kSmokeGridSide : kGridSide;
  const int steps = cfg.smoke ? kSmokeSteps : kSteps;
  const int workers = kernel_workers();

  Host h;
  const auto setup = [&] {
    h = Host{};
    h.machine = std::make_unique<sim::MachineConfig>(sim::haswell_2650v3());
    // The simulated package runs the matching Heat-irt phase profile,
    // lengthened so it outlasts any run.
    const workloads::BenchmarkModel& model =
        workloads::find_benchmark("Heat-irt");
    const int64_t t0 = now_ns();
    h.profile = model.build_program(cfg.seed);
    const int64_t t1 = now_ns();
    exp::calibrate_program(h.profile, *h.machine, model.default_time_s);
    h.build_program_ns = t1 - t0;
    h.calibrate_ns = now_ns() - t1;
    h.profile.scale_instructions(1e5 / model.default_time_s);
    h.platform = std::make_unique<exp::RealtimeSimPlatform>(
        *h.machine, h.profile, kRate, cfg.seed);
    h.platform->start();
    h.tasks = std::make_unique<runtime::TaskScheduler>(workers);
    h.a = std::make_unique<workloads::Grid2D>(side, side, 0.0);
    h.b = std::make_unique<workloads::Grid2D>(side, side, 0.0);
  };
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    h.platform.reset();  // stop the previous simulator thread first
    const double t0 = now_s();
    setup();
    setups.push_back(now_s() - t0);
  }
  const double setup_s = median(setups);

  const double grid_bytes = 2.0 * static_cast<double>(side * side) * 8.0;
  out.fact("seed", std::to_string(cfg.seed));
  out.fact("kernel", "heat_step_tasks irregular DAG, " + std::to_string(side) +
                         "^2 grid, " + std::to_string(steps) + " steps/pass");
  out.fact("kernel_workers", std::to_string(workers));
  out.fact("threads", std::to_string(workers) +
                          " kernel + 1 daemon + 1 simulator");
  out.fact("grid_bytes", std::to_string(static_cast<int64_t>(grid_bytes)));
  const double llc = static_cast<double>(llc_bytes());
  if (llc > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", grid_bytes / llc);
    out.fact("grid_bytes_over_llc", buf);
  }

  // Oracle: the same steps with heat_step_seq.
  fill(*h.a, cfg.seed);
  fill(*h.b, cfg.seed);
  const double seq_t0 = now_s();
  for (int s = 0; s < steps; ++s) {
    workloads::heat_step_seq(*h.a, *h.b);
    std::swap(h.a, h.b);
  }
  const double seq_s = now_s() - seq_t0;
  const double want = h.a->checksum();

  const auto check = [&](const Pass& p, const char* what) {
    ++out.attempted;
    if (!p.ok) {
      out.fail(std::string(what) + " checksum differs from heat_step_seq");
    }
  };

  if (!cfg.trace) {
    // Each kernel step of a session pass is a chunk.
    ChunkMinima chunks;
    std::vector<double> session_s, ratio, step_ms;
    const double deadline = now_s() + cfg.seconds;
    for (int i = 0; now_s() < deadline || i < 3; ++i) {
      Pass bare, live;
      if (i % 2 == 0) bare = kernel_pass(h, cfg.seed, steps, want, nullptr);
      live = kernel_pass(h, cfg.seed, steps, want, h.platform.get());
      if (i % 2 == 1) bare = kernel_pass(h, cfg.seed, steps, want, nullptr);
      check(bare, "bare pass");
      check(live, "session pass");
      session_s.push_back(live.wall_s);
      ratio.push_back(live.wall_s / bare.wall_s);
      for (size_t k = 0; k < live.step_ms.size(); ++k) {
        chunks.add(k, live.step_ms[k] * 1e-3);
      }
      step_ms.insert(step_ms.end(), live.step_ms.begin(), live.step_ms.end());
    }
    out.end_to_end = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"pass_s", chunks.pass_s(), "s"},
        {"slowdown_ratio", median(ratio), "ratio"},
    };
    out.fact("timed_pairs", std::to_string(session_s.size()));
    const int pct = reportable_percentile(step_ms.size());
    out.fact("step_samples", std::to_string(step_ms.size()));
    out.fact("pass_wall_s_quartiles", quartiles(session_s));
    out.report.push_back({"host_kernel_s", median(session_s), "s"});
    out.report.push_back({"host_slowdown_ratio", median(ratio), "ratio"});
    out.report.push_back({"host_step_p50_ms", quantile(step_ms, 0.5), "ms"});
    out.report.push_back({"host_step_p" + std::to_string(pct) + "_ms",
                          quantile(step_ms, pct / 100.0), "ms"});
    return out;
  }

  // Traced run: bare, untraced-session and traced-session passes rotate;
  // the traced ones run the session over a TimedPlatform.
  out.per_layer = per_layer_template();
  std::vector<Metric>* m = &out.per_layer;
  set_metric(m, "workloads.build_program.self_s",
             static_cast<double>(h.build_program_ns) * 1e-9);
  set_metric(m, "exp.calibrate.calls", 1);
  set_metric(m, "exp.calibrate.self_s",
             static_cast<double>(h.calibrate_ns) * 1e-9);
  set_metric(m, "sim.program.ops", static_cast<double>(h.profile.ops().size()));

  std::vector<double> bare_s, bare_step_ms, untraced_s, traced_s;
  std::vector<double> gaps_ms;
  CallStats sample, apply;
  uint64_t changed = 0, samples = 0;
  int64_t sampled_ns = 0;  // first to last sensor read, summed over passes
  runtime::TaskScheduler::Stats rt{};
  const double deadline = now_s() + cfg.seconds;
  do {
    const auto r0 = h.tasks->stats();
    const Pass bare = kernel_pass(h, cfg.seed, steps, want, nullptr);
    const auto r1 = h.tasks->stats();
    rt.executed += r1.executed - r0.executed;
    rt.steals += r1.steals - r0.steals;
    rt.steal_attempts += r1.steal_attempts - r0.steal_attempts;
    rt.parks += r1.parks - r0.parks;
    rt.slab_blocks += r1.slab_blocks - r0.slab_blocks;
    rt.heap_fallbacks += r1.heap_fallbacks - r0.heap_fallbacks;
    check(bare, "bare pass");
    bare_s.push_back(bare.wall_s);
    bare_step_ms.insert(bare_step_ms.end(), bare.step_ms.begin(),
                        bare.step_ms.end());

    const Pass live = kernel_pass(h, cfg.seed, steps, want, h.platform.get());
    check(live, "session pass");
    untraced_s.push_back(live.wall_s);

    TimedPlatform timed(*h.platform);
    std::vector<int64_t> times;
    times.reserve(4096);
    timed.sample_times = &times;
    const Pass traced = kernel_pass(h, cfg.seed, steps, want, &timed);
    check(traced, "traced session pass");
    traced_s.push_back(traced.wall_s);
    sample.merge(timed.sample);
    apply.merge(timed.apply);
    changed += timed.apply_changed;
    samples += times.size();
    for (size_t i = 1; i < times.size(); ++i) {
      gaps_ms.push_back(static_cast<double>(times[i] - times[i - 1]) * 1e-6);
    }
    if (times.size() > 1) sampled_ns += times.back() - times.front();
  } while (now_s() < deadline);

  // HAL counts per traced session pass, runtime counts per bare pass.
  const auto per = [&](const char* name, double v, size_t passes) {
    set_metric(m, name, v / static_cast<double>(passes));
  };
  const size_t n = traced_s.size();
  const size_t bn = bare_s.size();
  per("hal.sample.calls", static_cast<double>(sample.calls), n);
  per("hal.sample.self_s", static_cast<double>(sample.busy_ns) * 1e-9, n);
  per("hal.apply.calls", static_cast<double>(apply.calls), n);
  per("hal.apply.self_s", static_cast<double>(apply.busy_ns) * 1e-9, n);
  per("hal.apply.changed", static_cast<double>(changed), n);
  // The daemon reads the sensors once per tick: its cadence is the
  // intervals between reads over the time they span.
  if (sampled_ns > 0) {
    set_metric(m, "core.daemon.ticks_per_s",
               static_cast<double>(gaps_ms.size()) /
                   (static_cast<double>(sampled_ns) * 1e-9));
  }
  set_metric(m, "core.daemon.gap_p99_ms", quantile(gaps_ms, 0.99));
  per("runtime.tasks", static_cast<double>(rt.executed), bn);
  per("runtime.steals", static_cast<double>(rt.steals), bn);
  per("runtime.steal_attempts", static_cast<double>(rt.steal_attempts), bn);
  per("runtime.parks", static_cast<double>(rt.parks), bn);
  per("runtime.slab_blocks", static_cast<double>(rt.slab_blocks), bn);
  per("runtime.heap_fallbacks", static_cast<double>(rt.heap_fallbacks), bn);
  set_metric(m, "runtime.step.bare_ms_p50", quantile(bare_step_ms, 0.5));
  set_metric(m, "runtime.speedup_vs_seq", seq_s / median(bare_s));
  set_metric(m, "trace.wall_s", median(traced_s));
  set_metric(m, "trace.untraced_wall_s", median(untraced_s));
  set_metric(m, "trace.overhead_ratio", median(traced_s) / median(untraced_s));
  set_metric(m, "trace.valid", 1);
  out.fact("traced_passes", std::to_string(traced_s.size()));
  out.fact("daemon_samples", std::to_string(samples));
  return out;
}

}  // namespace perfbench

// The two co-simulation workloads: fig10_sweep and long_phase. Each one
// builds its inputs from the seed, computes an oracle table outside both
// the timed region and setup_s, then either times its pass for the run's
// duration (tracing off) or gives the per-layer account (tracing on).

#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "exp/calibrate.hpp"
#include "exp/result_cache.hpp"
#include "exp/sweep.hpp"
#include "sim/machine_config.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace cuttlefish;

namespace {

/// Seed replicates per Fig. 10 point: 10 models x 4 variants x 5 = 200
/// co-simulations. Half the seeds of bench/micro_sweep's grid, so a run
/// holds twice the passes, and each chunk twice the chances to meet a
/// fast spell of its vCPU (see ChunkMinima).
constexpr int kFig10Seeds = 5;
constexpr int kSmokeSeeds = 1;

/// Table digest of fig10_sweep at kDefaultSeed (full size). Every run at
/// that seed must reproduce it bit for bit; a change that moves any
/// result bit must say so and re-pin it.
constexpr const char* kFig10PinnedDigest = "e8e4eb4b3385b0e8735711d63bddfcdd";

/// long_phase lengthens each calibrated program by this factor, so one
/// co-simulation covers ~50x the paper's run (~3500 virtual seconds) and
/// calibration and first-touch costs are amortised.
constexpr double kLongScale = 50.0;
constexpr double kSmokeLongScale = 4.0;

/// Both co-simulation workloads run on one worker. On a shared host each
/// vCPU is slowed independently (see ChunkMinima), and a sweep fanned out
/// over two runs at the pace of the slower: its fastest pass moved by 2x
/// between runs. One worker also keeps the measurement off the host's
/// other cores.
constexpr int kWorkers = 1;

/// One model's four Fig. 10 points (Default, Full, CoreOnly, UncoreOnly).
void add_fig10_model(exp::SweepGrid* grid,
                     const workloads::BenchmarkModel& model, int seeds,
                     uint64_t seed0) {
  const exp::RunOptions opt;
  const int base =
      grid->add_default(model.name + "/Default", model, opt, seeds, seed0);
  for (const auto policy :
       {core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
        core::PolicyKind::kUncoreOnly}) {
    grid->add_policy(model.name + "/" + core::to_string(policy), model,
                     policy, opt, seeds, seed0, base);
  }
}

/// Wall seconds of one call of `fn`.
template <typename F>
double timed(F&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double virtual_seconds(const std::vector<exp::RunResult>& table) {
  double total = 0.0;
  for (const auto& r : table) total += r.time_s;
  return total;
}

/// Seed-paired (Full, Default) spec indices, grouped by model.
using PairsByModel = std::vector<std::vector<std::pair<size_t, size_t>>>;

PairsByModel fig10_pairs(const exp::SweepGrid& grid) {
  PairsByModel out;
  for (const exp::SweepPoint& p : grid.points()) {
    const exp::RunSpec& first = grid.specs()[static_cast<size_t>(p.first_spec)];
    if (first.kind != exp::RunKind::kPolicy ||
        first.policy != core::PolicyKind::kFull || p.baseline_point < 0) {
      continue;
    }
    auto& pairs = out.emplace_back();
    for (int rep = 0; rep < p.reps; ++rep) {
      pairs.emplace_back(
          static_cast<size_t>(p.first_spec + rep),
          static_cast<size_t>(grid.spec_index(p.baseline_point, rep)));
    }
  }
  return out;
}

/// The paper's headline comparison: per model, the mean over seeds of the
/// seed-paired Full/Default ratio; then the geomean over models.
struct Quality {
  double energy_ratio = 0.0;
  double edp_ratio = 0.0;
  double time_ratio = 0.0;
};

Quality quality(const PairsByModel& models,
                const std::vector<exp::RunResult>& t) {
  std::vector<double> energy, edp, time;
  for (const auto& pairs : models) {
    double e = 0.0, d = 0.0, s = 0.0;
    for (const auto& [full, base] : pairs) {
      e += t[full].energy_j / t[base].energy_j;
      d += t[full].edp() / t[base].edp();
      s += t[full].time_s / t[base].time_s;
    }
    const double n = static_cast<double>(pairs.size());
    energy.push_back(e / n);
    edp.push_back(d / n);
    time.push_back(s / n);
  }
  return Quality{geomean(energy), geomean(edp), geomean(time)};
}

void report_quality(const Quality& q, Outcome* out) {
  out->report.push_back(
      {"energy_savings_geomean_pct", 100.0 * (1.0 - q.energy_ratio), "%"});
  out->report.push_back(
      {"edp_savings_geomean_pct", 100.0 * (1.0 - q.edp_ratio), "%"});
  out->report.push_back(
      {"slowdown_geomean_pct", 100.0 * (q.time_ratio - 1.0), "%"});
}

/// End-to-end metrics shared by the co-simulation workloads.
void sweep_end_to_end(const std::vector<double>& setup_s,
                      const ChunkMinima& chunks,
                      const std::vector<double>& pass_wall_s,
                      double slowdown_ratio, double virtual_s, Outcome* out) {
  out->end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"pass_s", chunks.pass_s(), "s"},
      {"slowdown_ratio", slowdown_ratio, "ratio"},
  };
  out->fact("setups", std::to_string(setup_s.size()));
  out->fact("timed_passes", std::to_string(pass_wall_s.size()));
  out->fact("chunks_per_pass", std::to_string(chunks.chunks()));
  out->fact("pass_wall_s_quartiles", quartiles(pass_wall_s));
  out->report.push_back({"sweep_vsps", virtual_s / chunks.pass_s(), "vs/s"});
}

std::string spec_label(const exp::RunSpec& spec) {
  std::string kind = spec.kind == exp::RunKind::kDefault ? "Default"
                     : spec.kind == exp::RunKind::kFixed
                         ? "Fixed"
                         : core::to_string(spec.policy);
  return spec.model->name + "/" + kind + "/seed" + std::to_string(spec.seed);
}

// ---- the traced co-simulation account ---------------------------------------

/// The unique calibrated programs of a spec list, keyed like run_sweep's
/// memo (model, machine, seed). `prebuilt` programs (long_phase) are used
/// as given; otherwise every pass builds its own.
struct ProgramPlan {
  std::vector<const exp::RunSpec*> rep;  // the spec that builds program i
  std::vector<size_t> of_spec;           // program index of every spec
  const std::vector<sim::PhaseProgram>* prebuilt = nullptr;
};

ProgramPlan plan_programs(const std::vector<exp::RunSpec>& specs) {
  ProgramPlan plan;
  std::map<std::tuple<const workloads::BenchmarkModel*,
                      const sim::MachineConfig*, uint64_t>,
           size_t>
      index;
  for (const exp::RunSpec& s : specs) {
    const auto [it, inserted] = index.emplace(
        std::make_tuple(s.model, s.machine, s.seed), index.size());
    if (inserted) plan.rep.push_back(&s);
    plan.of_spec.push_back(it->second);
  }
  return plan;
}

struct CosimTrace {
  int passes = 0;
  std::vector<double> traced_wall_s;
  std::vector<double> untraced_wall_s;
  Tracer tracer;
  CallStats run_spec;  // exp::run_spec calls of the reference passes
  CallStats build_program;
  CallStats calibrate;
  uint64_t program_ops = 0;  // summed over every built program
  std::array<int64_t, kLayerCount> layer_ns{};  // traced passes only
  int64_t traced_ns = 0;
  uint64_t rebuild_mismatches = 0;
};

/// Alternates an untraced reference pass (exp::run_spec over every spec,
/// programs from exp::build_calibrated) with a traced pass (the rebuilt
/// loops of trace.cpp, programs from build_program + calibrate_program)
/// until `seconds` have elapsed, at least once each. Both passes are
/// serial, so their wall times are comparable; every traced result must be
/// byte-identical to the reference, and every reference to the oracle.
void trace_cosim(const std::vector<exp::RunSpec>& specs,
                 const ProgramPlan& plan,
                 const std::vector<exp::RunResult>& oracle, double seconds,
                 CosimTrace* t, Outcome* out) {
  const double deadline = now_s() + seconds;
  do {
    // Reference pass.
    {
      const int64_t p0 = now_ns();
      const uint64_t pid = t->tracer.open("pass.reference", p0);
      std::vector<sim::PhaseProgram> built;
      if (plan.prebuilt == nullptr) {
        built.reserve(plan.rep.size());
        for (const exp::RunSpec* r : plan.rep) {
          built.push_back(exp::build_calibrated(*r->model, *r->machine,
                                                r->seed));
        }
      }
      const auto& programs = plan.prebuilt ? *plan.prebuilt : built;
      std::vector<exp::RunResult> ref(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        const int64_t ts = now_ns();
        ref[i] = exp::run_spec(specs[i], programs[plan.of_spec[i]]);
        const int64_t te = now_ns();
        t->run_spec.add(te - ts);
        t->tracer.leaf(Layer::kExp, "exp.run_spec", pid, ts, te);
      }
      const int64_t p1 = now_ns();
      t->tracer.close(pid, p1);
      t->untraced_wall_s.push_back(static_cast<double>(p1 - p0) * 1e-9);
      out->attempted += specs.size();
      compare_tables(ref, oracle, "reference pass", out);
    }
    // Traced pass.
    {
      std::array<int64_t, kLayerCount> before{};
      for (int l = 0; l < kLayerCount; ++l) {
        before[l] = t->tracer.layer_self_ns(static_cast<Layer>(l));
      }
      const int64_t p0 = now_ns();
      const uint64_t pid = t->tracer.open("pass.traced", p0);
      std::vector<sim::PhaseProgram> built;
      if (plan.prebuilt == nullptr) {
        built.reserve(plan.rep.size());
        for (const exp::RunSpec* r : plan.rep) {
          const int64_t t0 = now_ns();
          sim::PhaseProgram program = r->model->build_program(r->seed);
          const int64_t t1 = now_ns();
          exp::calibrate_program(program, *r->machine,
                                 r->model->default_time_s);
          const int64_t t2 = now_ns();
          t->tracer.leaf(Layer::kWorkloads, "workloads.build_program", pid,
                         t0, t1);
          t->tracer.leaf(Layer::kExp, "exp.calibrate", pid, t1, t2);
          t->build_program.add(t1 - t0);
          t->calibrate.add(t2 - t1);
          t->program_ops += program.ops().size();
          built.push_back(std::move(program));
        }
      }
      const auto& programs = plan.prebuilt ? *plan.prebuilt : built;
      for (size_t i = 0; i < specs.size(); ++i) {
        QuantumAccount account;
        const int64_t ts = now_ns();
        const exp::RunResult r =
            run_traced(specs[i], programs[plan.of_spec[i]], &account);
        const int64_t te = now_ns();
        t->tracer.spec(spec_label(specs[i]), pid, ts, te, account);
        if (exp::encode_result(r) != exp::encode_result(oracle[i])) {
          ++t->rebuild_mismatches;
        }
      }
      const int64_t p1 = now_ns();
      t->tracer.close(pid, p1);
      t->traced_wall_s.push_back(static_cast<double>(p1 - p0) * 1e-9);
      t->traced_ns += p1 - p0;
      for (int l = 0; l < kLayerCount; ++l) {
        t->layer_ns[l] +=
            t->tracer.layer_self_ns(static_cast<Layer>(l)) - before[l];
      }
    }
    ++t->passes;
    // Spans of the first pair are kept for the trace file; later passes
    // only feed the aggregates.
    t->tracer.keep_spans(false);
  } while (now_s() < deadline);
}

/// Write the traced run's spans to <out-dir>/trace-<workload>.json.
void write_trace(const Config& cfg, const Tracer& tracer, Outcome* out) {
  if (cfg.out_dir.empty()) return;
  const std::string path = cfg.out_dir + "/trace-" + cfg.workload + ".json";
  out->fact("trace_file",
            tracer.write_json(path) ? path : "NOT WRITTEN " + path);
}

/// Fill the per-layer metrics a CosimTrace measures, per pass.
void cosim_metrics(const CosimTrace& t,
                   const std::vector<exp::RunResult>& oracle,
                   std::vector<Metric>* m, Outcome* out) {
  const double passes = static_cast<double>(t.passes);
  // Per-pass count, per-pass seconds and histogram quantile setters.
  const auto count = [&](const char* name, uint64_t n) {
    set_metric(m, name, static_cast<double>(n) / passes);
  };
  const auto secs = [&](const char* name, int64_t ns) {
    set_metric(m, name, static_cast<double>(ns) * 1e-9 / passes);
  };
  const auto pct = [&](const char* name, const Histogram& h, double q,
                       double scale) {
    set_metric(m, name, h.quantile_ns(q) * scale);
  };
  if (t.calibrate.calls != 0) {
    secs("workloads.build_program.self_s", t.build_program.busy_ns);
    count("exp.calibrate.calls", t.calibrate.calls);
    secs("exp.calibrate.self_s", t.calibrate.busy_ns);
    set_metric(m, "sim.program.ops",
               static_cast<double>(t.program_ops) /
                   static_cast<double>(t.calibrate.calls));
  }
  const QuantumAccount& q = t.tracer.quanta();
  count("sim.advance.calls", q.advance.calls);
  secs("sim.advance.self_s", q.advance.busy_ns);
  pct("sim.advance.ns_p50", q.advance.hist, 0.50, 1.0);
  pct("sim.advance.ns_p99", q.advance.hist, 0.99, 1.0);
  count("sim.governor.tick.calls", q.governor_tick.calls);
  secs("sim.governor.tick.self_s", q.governor_tick.busy_ns);
  count("core.tick.calls", q.core_tick.calls);
  secs("core.tick.self_s", q.core_tick_self_ns);
  pct("core.tick.ns_p50", q.core_tick.hist, 0.50, 1.0);
  pct("core.tick.ns_p99", q.core_tick.hist, 0.99, 1.0);
  secs("core.begin.self_s", q.core_begin_self_ns);
  count("hal.sample.calls", q.hal_sample.calls);
  secs("hal.sample.self_s", q.hal_sample.busy_ns);
  count("hal.apply.calls", q.hal_apply.calls);
  secs("hal.apply.self_s", q.hal_apply.busy_ns);
  count("hal.apply.changed", q.hal_apply_changed);

  // Controller counts of one pass, straight from RunResult::stats.
  core::ControllerStats stats;
  for (const auto& r : oracle) {
    stats.samples_recorded += r.stats.samples_recorded;
    stats.freq_writes += r.stats.freq_writes;
    stats.transitions += r.stats.transitions;
    stats.nodes_inserted += r.stats.nodes_inserted;
  }
  const auto total = [&](const char* name, uint64_t n) {
    set_metric(m, name, static_cast<double>(n));
  };
  total("core.samples_recorded", stats.samples_recorded);
  total("core.freq_writes", stats.freq_writes);
  total("core.transitions", stats.transitions);
  total("core.nodes_inserted", stats.nodes_inserted);

  count("exp.run_spec.calls", t.run_spec.calls);
  pct("exp.run_spec.ms_p50", t.run_spec.hist, 0.50, 1e-6);
  pct("exp.run_spec.ms_p99", t.run_spec.hist, 0.99, 1e-6);

  int64_t attributed = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    attributed += t.layer_ns[l];
    const std::string name = std::string("layer.") + layer_name(layer) +
                             ".self_s";
    secs(name.c_str(), t.layer_ns[l]);
  }
  const double traced = median(t.traced_wall_s);
  const double untraced = median(t.untraced_wall_s);
  const double unattributed =
      1.0 - static_cast<double>(attributed) / static_cast<double>(t.traced_ns);
  set_metric(m, "trace.wall_s", traced);
  set_metric(m, "trace.untraced_wall_s", untraced);
  set_metric(m, "trace.overhead_ratio", traced / untraced);
  set_metric(m, "trace.unattributed_frac", unattributed);
  total("trace.rebuild_mismatches", t.rebuild_mismatches);
  // The per-layer section is valid when the rebuilt loops reproduced
  // exp::run_spec bit for bit and the layers account for the wall time.
  const bool valid =
      t.rebuild_mismatches == 0 && std::abs(unattributed) < 0.05;
  set_metric(m, "trace.valid", valid ? 1.0 : 0.0);
  out->fact("traced_passes", std::to_string(t.passes));
  if (!valid) {
    out->fact("per_layer", "INVALID (rebuilt loop differs from exp::run_spec "
                           "or layers do not sum to the traced wall)");
  }
}

/// exp::encode_result / decode_result cost per result over a table, with
/// a round-trip check (a codec that drops a bit fails the run).
void codec_metrics(const std::vector<exp::RunResult>& table,
                   std::vector<Metric>* m, Outcome* out) {
  int64_t enc = 0, dec = 0;
  uint64_t bytes = 0;
  for (const auto& r : table) {
    const int64_t t0 = now_ns();
    const std::string blob = exp::encode_result(r);
    const int64_t t1 = now_ns();
    exp::RunResult back;
    const bool ok = exp::decode_result(blob.data(), blob.size(), &back);
    const int64_t t2 = now_ns();
    enc += t1 - t0;
    dec += t2 - t1;
    bytes += blob.size();
    ++out->attempted;
    if (!ok || exp::encode_result(back) != blob) out->fail("codec round trip");
  }
  const double n = static_cast<double>(table.size());
  set_metric(m, "exp.codec.encode_ns", static_cast<double>(enc) / n);
  set_metric(m, "exp.codec.decode_ns", static_cast<double>(dec) / n);
  set_metric(m, "exp.result.bytes", static_cast<double>(bytes) / n);
}

/// The state fig10_sweep sets up: the machine, the whole grid (the oracle
/// and the traced run use it) and the timed chunks, one grid per (model,
/// seed) holding that seed's four variants. run_sweep builds one program
/// per (model, seed) and shares it across the variants, so running the
/// chunks in turn does exactly the whole grid's work: the same 50
/// program builds and 200 co-simulations. `chunk_spec[c][v]` is the
/// whole-grid index of variant v of chunk c.
struct Fig10Setup {
  std::unique_ptr<sim::MachineConfig> machine;
  std::unique_ptr<exp::SweepGrid> grid;
  std::vector<exp::SweepGrid> chunks;
  std::vector<std::vector<size_t>> chunk_spec;
};

Fig10Setup fig10_setup(const Config& cfg) {
  Fig10Setup s;
  s.machine = std::make_unique<sim::MachineConfig>(sim::haswell_2650v3());
  s.grid = std::make_unique<exp::SweepGrid>(*s.machine);
  const int seeds = cfg.smoke ? kSmokeSeeds : kFig10Seeds;
  for (const auto& model : workloads::openmp_suite()) {
    const size_t first = s.grid->size();
    add_fig10_model(s.grid.get(), model, seeds, cfg.seed);
    for (int rep = 0; rep < seeds; ++rep) {
      add_fig10_model(&s.chunks.emplace_back(*s.machine), model, 1,
                      cfg.seed + static_cast<uint64_t>(rep));
      auto& index = s.chunk_spec.emplace_back();
      for (size_t v = 0; v < s.chunks.back().size(); ++v) {
        index.push_back(first + v * static_cast<size_t>(seeds) +
                        static_cast<size_t>(rep));
      }
    }
  }
  return s;
}

void fig10_facts(const Config& cfg, const exp::SweepGrid& grid,
                 Outcome* out) {
  out->fact("seed_base", std::to_string(cfg.seed));
  const exp::SweepPoint& first = grid.points().front();
  out->fact("grid", std::to_string(grid.points().size()) + " points x " +
                        std::to_string(first.reps) + " seeds = " +
                        std::to_string(grid.size()) + " specs");
  out->fact("workers", std::to_string(kWorkers));
}

/// What long_phase sets up: the machine, each model's calibrated and
/// lengthened program, and a (Default, Full) spec pair per model.
struct LongSetup {
  std::unique_ptr<sim::MachineConfig> machine;
  std::vector<sim::PhaseProgram> programs;
  std::vector<exp::RunSpec> specs;
  CallStats build_program, calibrate;
  uint64_t program_ops = 0;
};

LongSetup long_setup(const Config& cfg, size_t models, double scale) {
  LongSetup s;
  s.machine = std::make_unique<sim::MachineConfig>(sim::haswell_2650v3());
  for (size_t i = 0; i < models; ++i) {
    const workloads::BenchmarkModel& model = workloads::openmp_suite()[i];
    // build_calibrated, split in its two halves so the traced run can
    // tell the model build (workloads) from calibration (exp).
    const int64_t t0 = now_ns();
    sim::PhaseProgram program = model.build_program(cfg.seed);
    const int64_t t1 = now_ns();
    exp::calibrate_program(program, *s.machine, model.default_time_s);
    const int64_t t2 = now_ns();
    s.build_program.add(t1 - t0);
    s.calibrate.add(t2 - t1);
    s.program_ops += program.ops().size();
    program.scale_instructions(scale);
    s.programs.push_back(std::move(program));
    exp::RunSpec spec;
    spec.model = &model;
    spec.machine = s.machine.get();
    spec.seed = cfg.seed;
    spec.kind = exp::RunKind::kDefault;
    s.specs.push_back(spec);
    spec.kind = exp::RunKind::kPolicy;
    spec.policy = core::PolicyKind::kFull;
    s.specs.push_back(spec);
  }
  return s;
}

}  // namespace

// ---- fig10_sweep ------------------------------------------------------------

Outcome run_fig10_sweep(const Config& cfg) {
  Outcome out;
  Fig10Setup s;
  std::vector<double> setup_s = {timed([&] { s = fig10_setup(cfg); })};
  const exp::SweepGrid& grid = *s.grid;
  fig10_facts(cfg, grid, &out);

  // Oracle: the first serial table, computed untimed; every timed pass
  // must repeat it. At the default seed it must also match the pinned
  // digest.
  const std::vector<exp::RunResult> oracle = exp::run_sweep(grid, nullptr);
  const std::string digest = table_digest(oracle);
  out.fact("table_digest", digest);
  if (cfg.seed == kDefaultSeed && !cfg.smoke) {
    ++out.attempted;
    if (digest != kFig10PinnedDigest) {
      out.fail(std::string("table digest ") + digest + " != pinned " +
               kFig10PinnedDigest);
    }
  }
  const Quality q = quality(fig10_pairs(grid), oracle);
  report_quality(q, &out);
  const double vsec = virtual_seconds(oracle);

  if (!cfg.trace) {
    // One set-up before every pass, so setup_s is a median over the run;
    // each pass runs on the next CPU.
    ChunkMinima chunks;
    CpuRotation rotation;
    std::vector<double> pass_wall_s;
    const double deadline = now_s() + cfg.seconds;
    while (now_s() < deadline || pass_wall_s.size() < 3) {
      rotation.next();
      {
        Fig10Setup again;
        setup_s.push_back(timed([&] { again = fig10_setup(cfg); }));
      }
      std::vector<exp::RunResult> got(grid.size());
      double wall = 0.0;
      for (size_t c = 0; c < s.chunks.size(); ++c) {
        std::vector<exp::RunResult> part;
        const double t = timed([&] { part = exp::run_sweep(s.chunks[c]); });
        chunks.add(c, t);
        wall += t;
        for (size_t v = 0; v < part.size(); ++v) {
          got[s.chunk_spec[c][v]] = std::move(part[v]);
        }
      }
      pass_wall_s.push_back(wall);
      out.attempted += grid.size();
      compare_tables(got, oracle, "sweep", &out);
    }
    out.fact("cpus_rotated", std::to_string(rotation.cpus()));
    sweep_end_to_end(setup_s, chunks, pass_wall_s, q.time_ratio, vsec, &out);
    return out;
  }

  out.per_layer = per_layer_template();
  CosimTrace t;
  const ProgramPlan plan = plan_programs(grid.specs());
  trace_cosim(grid.specs(), plan, oracle, cfg.seconds, &t, &out);
  cosim_metrics(t, oracle, &out.per_layer, &out);
  codec_metrics(oracle, &out.per_layer, &out);
  write_trace(cfg, t.tracer, &out);
  return out;
}

// ---- long_phase -------------------------------------------------------------

Outcome run_long_phase(const Config& cfg) {
  Outcome out;
  const double scale = cfg.smoke ? kSmokeLongScale : kLongScale;
  const size_t models = cfg.smoke ? 2 : workloads::openmp_suite().size();

  LongSetup setup;
  std::vector<double> setup_s = {
      timed([&] { setup = long_setup(cfg, models, scale); })};
  const std::vector<sim::PhaseProgram>& programs = setup.programs;
  const std::vector<exp::RunSpec>& specs = setup.specs;
  out.fact("seed", std::to_string(cfg.seed));
  out.fact("specs", std::to_string(models) + " models x {Default, Full}, "
                        "programs scaled x" + std::to_string(scale));
  out.fact("workers", std::to_string(kWorkers));

  std::vector<exp::RunResult> oracle(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    oracle[i] = exp::run_spec(specs[i], programs[i / 2]);
  }
  out.fact("table_digest", table_digest(oracle));
  PairsByModel pairs(models);
  for (size_t i = 0; i < models; ++i) pairs[i].emplace_back(2 * i + 1, 2 * i);
  const Quality q = quality(pairs, oracle);
  report_quality(q, &out);
  const double vsec = virtual_seconds(oracle);

  if (!cfg.trace) {
    // One set-up before every pass, so setup_s is a median over the run;
    // each co-simulation is a chunk, and each pass runs on the next CPU.
    ChunkMinima chunks;
    CpuRotation rotation;
    std::vector<double> pass_wall_s;
    const double deadline = now_s() + cfg.seconds;
    while (now_s() < deadline || pass_wall_s.size() < 3) {
      rotation.next();
      {
        LongSetup again;
        setup_s.push_back(
            timed([&] { again = long_setup(cfg, models, scale); }));
      }
      std::vector<exp::RunResult> got(specs.size());
      double wall = 0.0;
      for (size_t i = 0; i < specs.size(); ++i) {
        const double t =
            timed([&] { got[i] = exp::run_spec(specs[i], programs[i / 2]); });
        chunks.add(i, t);
        wall += t;
      }
      pass_wall_s.push_back(wall);
      out.attempted += specs.size();
      compare_tables(got, oracle, "long pass", &out);
    }
    out.fact("cpus_rotated", std::to_string(rotation.cpus()));
    sweep_end_to_end(setup_s, chunks, pass_wall_s, q.time_ratio, vsec, &out);
    return out;
  }

  out.per_layer = per_layer_template();
  set_metric(&out.per_layer, "workloads.build_program.self_s",
             static_cast<double>(setup.build_program.busy_ns) * 1e-9);
  set_metric(&out.per_layer, "exp.calibrate.calls",
             static_cast<double>(setup.calibrate.calls));
  set_metric(&out.per_layer, "exp.calibrate.self_s",
             static_cast<double>(setup.calibrate.busy_ns) * 1e-9);
  set_metric(&out.per_layer, "sim.program.ops",
             static_cast<double>(setup.program_ops) /
                 static_cast<double>(models));
  CosimTrace t;
  ProgramPlan plan;
  plan.prebuilt = &programs;
  for (size_t i = 0; i < specs.size(); ++i) plan.of_spec.push_back(i / 2);
  trace_cosim(specs, plan, oracle, cfg.seconds, &t, &out);
  cosim_metrics(t, oracle, &out.per_layer, &out);
  codec_metrics(oracle, &out.per_layer, &out);
  write_trace(cfg, t.tracer, &out);
  return out;
}

}  // namespace perfbench

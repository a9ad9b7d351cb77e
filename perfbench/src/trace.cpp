#include "trace.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/controller_factory.hpp"
#include "core/tipi_list.hpp"
#include "sim/firmware_governor.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace perfbench {

using namespace cuttlefish;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkloads: return "workloads";
    case Layer::kExp: return "exp";
    case Layer::kSim: return "sim";
    case Layer::kCore: return "core";
    case Layer::kHal: return "hal";
  }
  return "?";
}

// ---- Histogram --------------------------------------------------------------

void Histogram::add(int64_t ns) {
  // Bucket 0 holds ns <= 0; otherwise 4 * floor(log2 ns) plus the two bits
  // below the leading one, plus 1 -- integer-only, so timing a call costs
  // little beyond the clock reads.
  int b = 0;
  if (ns > 0) {
    const auto v = static_cast<uint64_t>(ns);
    const int msb = 63 - __builtin_clzll(v);
    const int sub = msb >= 2 ? static_cast<int>((v >> (msb - 2)) & 3)
                             : static_cast<int>((v << (2 - msb)) & 3);
    b = std::min(4 * msb + sub + 1, kBuckets - 1);
  }
  ++buckets_[static_cast<size_t>(b)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
}

double Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (static_cast<double>(seen) > rank) {
      if (i == 0) return 0.0;
      // Bucket i covers [2^m (1 + s/4), 2^m (1 + (s+1)/4)) with
      // i - 1 = 4m + s; report its midpoint.
      const int m = (i - 1) / 4;
      const int sub = (i - 1) % 4;
      return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) / 4.0, m);
    }
  }
  return std::ldexp(1.0, (kBuckets - 1) / 4);
}

std::vector<std::pair<int, uint64_t>> Histogram::nonzero() const {
  std::vector<std::pair<int, uint64_t>> out;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[static_cast<size_t>(i)] != 0) {
      out.emplace_back(i, buckets_[static_cast<size_t>(i)]);
    }
  }
  return out;
}

// ---- TimedPlatform ----------------------------------------------------------

TimedPlatform::TimedPlatform(hal::PlatformInterface& inner)
    : inner_(&inner),
      last_core_(inner.core_frequency()),
      last_uncore_(inner.uncore_frequency()) {}

void TimedPlatform::note_apply(int64_t start, FreqMHz* last, FreqMHz f) {
  apply.add(now_ns() - start);
  if (f != *last) ++apply_changed;
  *last = f;
}

void TimedPlatform::note_sample(int64_t start) {
  sample.add(now_ns() - start);
  if (sample_times != nullptr) sample_times->push_back(start);
}

void TimedPlatform::set_core_frequency(FreqMHz f) {
  const int64_t t0 = now_ns();
  inner_->set_core_frequency(f);
  note_apply(t0, &last_core_, f);
}

void TimedPlatform::set_uncore_frequency(FreqMHz f) {
  const int64_t t0 = now_ns();
  inner_->set_uncore_frequency(f);
  note_apply(t0, &last_uncore_, f);
}

hal::IoOutcome TimedPlatform::apply_core_frequency(FreqMHz f) {
  const int64_t t0 = now_ns();
  const hal::IoOutcome out = inner_->apply_core_frequency(f);
  note_apply(t0, &last_core_, f);
  return out;
}

hal::IoOutcome TimedPlatform::apply_uncore_frequency(FreqMHz f) {
  const int64_t t0 = now_ns();
  const hal::IoOutcome out = inner_->apply_uncore_frequency(f);
  note_apply(t0, &last_uncore_, f);
  return out;
}

hal::SensorTotals TimedPlatform::read_sensors() {
  const int64_t t0 = now_ns();
  const hal::SensorTotals out = inner_->read_sensors();
  note_sample(t0);
  return out;
}

hal::SensorSample TimedPlatform::read_sample() {
  const int64_t t0 = now_ns();
  const hal::SensorSample out = inner_->read_sample();
  note_sample(t0);
  return out;
}

hal::SampleOutcome TimedPlatform::sample_sensors() {
  const int64_t t0 = now_ns();
  const hal::SampleOutcome out = inner_->sample_sensors();
  note_sample(t0);
  return out;
}

// ---- QuantumAccount ---------------------------------------------------------

void QuantumAccount::merge(const QuantumAccount& o) {
  advance.merge(o.advance);
  governor_tick.merge(o.governor_tick);
  core_tick.merge(o.core_tick);
  core_tick_self_ns += o.core_tick_self_ns;
  core_begin_self_ns += o.core_begin_self_ns;
  core_make_self_ns += o.core_make_self_ns;
  sim_setup_ns += o.sim_setup_ns;
  driver_ns += o.driver_ns;
  hal_sample.merge(o.hal_sample);
  hal_apply.merge(o.hal_apply);
  hal_apply_changed += o.hal_apply_changed;
}

int64_t QuantumAccount::total_ns() const {
  return advance.busy_ns + governor_tick.busy_ns + core_tick_self_ns +
         core_begin_self_ns + core_make_self_ns + sim_setup_ns + driver_ns +
         hal_sample.busy_ns + hal_apply.busy_ns;
}

// ---- run_traced -------------------------------------------------------------

namespace {

/// Chained interval clock: lap() returns the time since the previous lap.
class Lap {
 public:
  Lap() : last_(now_ns()) {}
  int64_t lap() {
    const int64_t t = now_ns();
    const int64_t d = t - last_;
    last_ = t;
    return d;
  }

 private:
  int64_t last_;
};

exp::RunResult finish(const sim::SimMachine& machine, exp::RunResult result) {
  result.time_s = machine.now();
  result.energy_j = machine.energy_joules();
  result.instructions = machine.instructions_retired();
  return result;
}

exp::RunResult traced_default(const sim::MachineConfig& cfg,
                              const sim::PhaseProgram& program,
                              const exp::RunOptions& options,
                              QuantumAccount* a) {
  Lap clock;
  sim::SimMachine machine(cfg, program, options.seed);
  machine.set_core_frequency(cfg.core_ladder.max());
  sim::FirmwareUncoreGovernor governor(machine);
  a->sim_setup_ns += clock.lap();
  const double tinv = options.controller.tinv_s;
  for (;;) {
    machine.advance(tinv);
    a->advance.add(clock.lap());
    if (machine.workload_done()) break;
    governor.tick();
    a->governor_tick.add(clock.lap());
  }
  exp::RunResult result = finish(machine, exp::RunResult{});
  a->driver_ns += clock.lap();
  return result;
}

exp::RunResult traced_fixed(const sim::MachineConfig& cfg,
                            const sim::PhaseProgram& program, FreqMHz cf,
                            FreqMHz uf, const exp::RunOptions& options,
                            QuantumAccount* a) {
  Lap clock;
  sim::SimMachine machine(cfg, program, options.seed);
  machine.set_core_frequency(cf);
  machine.set_uncore_frequency(uf);
  a->sim_setup_ns += clock.lap();
  const double tinv = options.controller.tinv_s;
  for (;;) {
    machine.advance(tinv);
    a->advance.add(clock.lap());
    if (machine.workload_done()) break;
  }
  exp::RunResult result = finish(machine, exp::RunResult{});
  a->driver_ns += clock.lap();
  return result;
}

exp::RunResult traced_policy(const sim::MachineConfig& cfg,
                             const sim::PhaseProgram& program,
                             core::PolicyKind policy,
                             const exp::RunOptions& options,
                             QuantumAccount* a) {
  Lap clock;
  sim::SimMachine machine(cfg, program, options.seed);
  sim::SimPlatform base(machine);
  TimedPlatform platform(base);
  a->sim_setup_ns += clock.lap();
  core::ControllerConfig ctl_cfg = options.controller;
  ctl_cfg.policy = policy;
  int64_t hal_before = platform.busy_ns();
  const std::unique_ptr<core::IController> controller =
      core::make_controller(platform, ctl_cfg);
  a->core_make_self_ns += clock.lap() - (platform.busy_ns() - hal_before);

  const double tinv = ctl_cfg.tinv_s;
  const auto step = [&] {
    machine.advance(tinv);
    a->advance.add(clock.lap());
    return !machine.workload_done();
  };
  const auto tick = [&] {
    hal_before = platform.busy_ns();
    controller->tick();
    const int64_t d = clock.lap();
    a->core_tick.add(d);
    a->core_tick_self_ns += d - (platform.busy_ns() - hal_before);
  };

  bool alive = true;
  for (double t = 0.0; t + tinv <= ctl_cfg.warmup_s + 1e-12; t += tinv) {
    alive = step();
    if (!alive) break;
  }
  if (alive) {
    a->driver_ns += clock.lap();
    hal_before = platform.busy_ns();
    controller->begin();
    a->core_begin_self_ns += clock.lap() - (platform.busy_ns() - hal_before);
    while (step()) tick();
    tick();
  }

  exp::RunResult result;
  result.stats = controller->stats();
  for (const core::TipiNode* node = controller->list().head();
       node != nullptr; node = node->next) {
    result.nodes.push_back(exp::NodeSummary{node->slab, node->ticks,
                                            node->cf.opt, node->uf.opt});
  }
  result = finish(machine, std::move(result));
  a->driver_ns += clock.lap();
  a->hal_sample.merge(platform.sample);
  a->hal_apply.merge(platform.apply);
  a->hal_apply_changed += platform.apply_changed;
  return result;
}

}  // namespace

exp::RunResult run_traced(const exp::RunSpec& spec,
                          const sim::PhaseProgram& program,
                          QuantumAccount* account) {
  exp::RunOptions options = spec.options;
  options.seed = spec.seed;
  switch (spec.kind) {
    case exp::RunKind::kDefault:
      return traced_default(*spec.machine, program, options, account);
    case exp::RunKind::kFixed:
      return traced_fixed(*spec.machine, program, spec.cf, spec.uf, options,
                          account);
    case exp::RunKind::kPolicy:
      return traced_policy(*spec.machine, program, spec.policy, options,
                           account);
  }
  return exp::RunResult{};
}

// ---- Tracer -----------------------------------------------------------------

uint64_t Tracer::push(Span span) {
  if (!keep_) return 0;
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uint64_t Tracer::leaf(Layer layer, std::string name, uint64_t parent,
                      int64_t start_ns, int64_t end_ns) {
  layer_self_ns_[static_cast<int>(layer)] += end_ns - start_ns;
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  return push(std::move(s));
}

uint64_t Tracer::spec(std::string name, uint64_t parent, int64_t start_ns,
                      int64_t end_ns, const QuantumAccount& a) {
  const auto add = [this](Layer l, int64_t ns) {
    layer_self_ns_[static_cast<int>(l)] += ns;
  };
  add(Layer::kSim,
      a.advance.busy_ns + a.governor_tick.busy_ns + a.sim_setup_ns);
  add(Layer::kCore,
      a.core_tick_self_ns + a.core_begin_self_ns + a.core_make_self_ns);
  add(Layer::kHal, a.hal_sample.busy_ns + a.hal_apply.busy_ns);
  // Whatever of the span the chained clock did not hand to a call is the
  // (rebuilt) exp driver loop's own bookkeeping.
  add(Layer::kExp, (end_ns - start_ns) - a.total_ns() + a.driver_ns);
  quanta_.merge(a);
  Span s;
  s.parent = parent;
  s.layer = Layer::kExp;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.has_account = true;
  s.account = a;
  return push(std::move(s));
}

uint64_t Tracer::open(std::string name, int64_t start_ns) {
  Span s;
  s.layer = Layer::kExp;
  s.name = std::move(name);
  s.start_ns = start_ns;
  return push(std::move(s));
}

void Tracer::close(uint64_t id, int64_t end_ns) {
  if (id != 0) spans_[id - 1].end_ns = end_ns;
}

namespace {

void write_calls(std::FILE* f, const char* name, const CallStats& c) {
  std::fprintf(f, ",\"%s\":{\"calls\":%llu,\"busy_ns\":%lld,\"hist\":[", name,
               static_cast<unsigned long long>(c.calls),
               static_cast<long long>(c.busy_ns));
  bool first = true;
  for (const auto& [bucket, count] : c.hist.nonzero()) {
    std::fprintf(f, "%s[%d,%llu]", first ? "" : ",", bucket,
                 static_cast<unsigned long long>(count));
    first = false;
  }
  std::fprintf(f, "]}");
}

}  // namespace

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"histogram_buckets\":\"bucket b>0 with b-1 = 4m+s "
                  "covers [2^m (1+s/4), 2^m (1+(s+1)/4)) ns\",\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%llu,\"parent\":%llu,\"layer\":\"%s\","
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld",
                 i == 0 ? "" : ",\n", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 layer_name(s.layer), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    if (s.has_account) {
      const QuantumAccount& a = s.account;
      write_calls(f, "sim.advance", a.advance);
      write_calls(f, "sim.governor.tick", a.governor_tick);
      write_calls(f, "core.tick", a.core_tick);
      write_calls(f, "hal.sample", a.hal_sample);
      write_calls(f, "hal.apply", a.hal_apply);
      std::fprintf(f,
                   ",\"core.tick.self_ns\":%lld,\"core.begin.self_ns\":%lld,"
                   "\"hal.apply.changed\":%llu",
                   static_cast<long long>(a.core_tick_self_ns),
                   static_cast<long long>(a.core_begin_self_ns),
                   static_cast<unsigned long long>(a.hal_apply_changed));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

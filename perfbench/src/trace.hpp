#pragma once

// Tracing for the benchmark's per-layer account. Everything here sits
// outside the library and reaches it only through public entry points:
//
//  * TimedPlatform, a forwarding-only hal::PlatformInterface decorator
//    that times the sensor and actuator calls a controller makes;
//  * run_traced, a copy of the exp driver's Default / fixed / policy
//    co-simulation loops (src/exp/driver.cpp) built from SimMachine,
//    SimPlatform, core::make_controller and FirmwareUncoreGovernor, with
//    a timestamp at every call boundary;
//  * Tracer, which holds spec-level spans (with parent ids) and the
//    per-quantum aggregates in memory and writes them out at the end.
//
// Both copies follow the public HAL and driver API: a change to that API
// (or to the driver loops) must update them in the same change, or the
// traced run's byte-identity check against exp::run_spec fails.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "hal/platform.hpp"
#include "sim/phase_workload.hpp"

namespace perfbench {

/// The repository modules a span can belong to.
/// (`runtime` work is counted by TaskScheduler::stats, not spanned.)
enum class Layer : uint8_t { kWorkloads, kExp, kSim, kCore, kHal };
inline constexpr int kLayerCount = 5;
const char* layer_name(Layer layer);

/// Log-bucketed latency histogram: four linear buckets per octave of
/// nanoseconds, so a quantile is exact to within 12.5%.
class Histogram {
 public:
  void add(int64_t ns);
  void merge(const Histogram& other);
  /// Geometric midpoint of the bucket holding quantile q.
  double quantile_ns(double q) const;
  /// (bucket, count) pairs of the non-empty buckets.
  std::vector<std::pair<int, uint64_t>> nonzero() const;

 private:
  static constexpr int kBuckets = 137;  // up to 2^34 ns (~17 s)
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

/// Calls, busy time and latency distribution at one call boundary.
struct CallStats {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  Histogram hist;

  void add(int64_t ns) {
    ++calls;
    busy_ns += ns;
    hist.add(ns);
  }
  void merge(const CallStats& other) {
    calls += other.calls;
    busy_ns += other.busy_ns;
    hist.merge(other.hist);
  }
};

/// Forwards every call to `inner` unchanged; times the sensor reads
/// (sample) and frequency writes (apply). Not synchronised: at any moment
/// one thread drives it (the co-simulation loop, or a session's daemon
/// thread between its start and stop).
class TimedPlatform final : public cuttlefish::hal::PlatformInterface {
 public:
  explicit TimedPlatform(cuttlefish::hal::PlatformInterface& inner);

  cuttlefish::hal::CapabilitySet capabilities() const override {
    return inner_->capabilities();
  }
  const cuttlefish::FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const cuttlefish::FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  cuttlefish::FreqMHz core_frequency() const override {
    return inner_->core_frequency();
  }
  cuttlefish::FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }
  void set_core_frequency(cuttlefish::FreqMHz f) override;
  void set_uncore_frequency(cuttlefish::FreqMHz f) override;
  cuttlefish::hal::SensorTotals read_sensors() override;
  cuttlefish::hal::SensorSample read_sample() override;
  cuttlefish::hal::IoOutcome apply_core_frequency(
      cuttlefish::FreqMHz f) override;
  cuttlefish::hal::IoOutcome apply_uncore_frequency(
      cuttlefish::FreqMHz f) override;
  cuttlefish::hal::SampleOutcome sample_sensors() override;

  CallStats sample;
  CallStats apply;
  uint64_t apply_changed = 0;  // writes that moved a domain's frequency
  /// When set, the start time of every sensor read is appended (the
  /// daemon's tick cadence in a live session).
  std::vector<int64_t>* sample_times = nullptr;

  int64_t busy_ns() const { return sample.busy_ns + apply.busy_ns; }

 private:
  void note_apply(int64_t start, cuttlefish::FreqMHz* last,
                  cuttlefish::FreqMHz f);
  void note_sample(int64_t start);

  cuttlefish::hal::PlatformInterface* inner_;
  cuttlefish::FreqMHz last_core_;
  cuttlefish::FreqMHz last_uncore_;
};

/// Per-quantum account of one traced co-simulation. Every nanosecond of
/// the spec lands in exactly one field: timestamps are chained, so the
/// end of one interval is the start of the next.
struct QuantumAccount {
  CallStats advance;        // sim: SimMachine::advance
  CallStats governor_tick;  // sim: FirmwareUncoreGovernor::tick
  CallStats core_tick;      // core: IController::tick, inclusive of HAL
  int64_t core_tick_self_ns = 0;  // core_tick minus the HAL time inside
  int64_t core_begin_self_ns = 0;
  int64_t core_make_self_ns = 0;  // make_controller minus HAL
  int64_t sim_setup_ns = 0;       // machine / governor construction
  int64_t driver_ns = 0;          // loop bookkeeping and result assembly
  CallStats hal_sample;
  CallStats hal_apply;
  uint64_t hal_apply_changed = 0;

  void merge(const QuantumAccount& other);
  int64_t total_ns() const;
};

/// The exp driver's co-simulation loops, rebuilt with a timestamp at
/// every call boundary. The result must be byte-identical to
/// exp::run_spec(spec, program). Specs with fault schedules or
/// arbitration are not supported (no benchmark workload uses them).
cuttlefish::exp::RunResult run_traced(
    const cuttlefish::exp::RunSpec& spec,
    const cuttlefish::sim::PhaseProgram& program, QuantumAccount* account);

/// Spans and per-layer self time of a traced run, kept in memory.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0: root
    Layer layer = Layer::kExp;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Per-quantum aggregates of a traced spec (empty for other spans).
    bool has_account = false;
    QuantumAccount account;
  };

  /// When false, spans only feed the per-layer totals and aggregates and
  /// are not kept (later passes of a long traced run).
  void keep_spans(bool keep) { keep_ = keep; }

  /// Record a finished span whose whole duration is its own self time.
  uint64_t leaf(Layer layer, std::string name, uint64_t parent,
                int64_t start_ns, int64_t end_ns);
  /// Record a traced spec: its self time is split across layers by the
  /// account.
  uint64_t spec(std::string name, uint64_t parent, int64_t start_ns,
                int64_t end_ns, const QuantumAccount& account);
  /// A grouping span (a pass) with no self time: open() before its
  /// children, close() after them.
  uint64_t open(std::string name, int64_t start_ns);
  void close(uint64_t id, int64_t end_ns);

  int64_t layer_self_ns(Layer layer) const {
    return layer_self_ns_[static_cast<int>(layer)];
  }
  const QuantumAccount& quanta() const { return quanta_; }

  /// Write every span (and each traced spec's per-quantum counts, busy
  /// times and histogram buckets) as JSON. False on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  uint64_t push(Span span);

  bool keep_ = true;
  std::vector<Span> spans_;
  std::array<int64_t, kLayerCount> layer_self_ns_{};
  QuantumAccount quanta_;
};

}  // namespace perfbench

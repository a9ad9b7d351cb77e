// perfbench: the repository benchmark's driver binary. See README.md.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR] [--smoke]
//   perfbench --oracle-selftest
//
// Prints the run's facts and figures, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any output disagrees with its oracle, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/sweep.hpp"
#include "sim/machine_config.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload fig10_sweep|long_phase|"
               "session_host [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR] [--smoke]\n"
               "       perfbench --oracle-selftest\n",
               why);
  return 2;
}

bool parse_u64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// The oracle must trip on a deliberately bit-flipped copy of a result
/// table: both the cell-by-cell comparison and the table digest.
int oracle_selftest() {
  const cuttlefish::sim::MachineConfig machine =
      cuttlefish::sim::haswell_2650v3();
  cuttlefish::exp::SweepGrid grid(machine);
  const auto& model = cuttlefish::workloads::find_benchmark("HPCCG");
  const int base =
      grid.add_default("HPCCG/Default", model, {}, 2, kDefaultSeed);
  grid.add_policy("HPCCG/Full", model, cuttlefish::core::PolicyKind::kFull,
                  {}, 2, kDefaultSeed, base);
  const auto table = cuttlefish::exp::run_sweep(grid, nullptr);
  auto flipped = table;
  uint64_t bits = 0;
  std::memcpy(&bits, &flipped[3].energy_j, sizeof(bits));
  bits ^= 1;  // the least significant mantissa bit
  std::memcpy(&flipped[3].energy_j, &bits, sizeof(bits));

  Outcome same, differ;
  const uint64_t clean = compare_tables(table, table, "identical", &same);
  const uint64_t tripped =
      compare_tables(flipped, table, "bit-flipped", &differ);
  const bool digest_trips = table_digest(flipped) != table_digest(table);
  std::printf("oracle self-test: identical copy -> %llu mismatches; "
              "bit-flipped copy -> %llu mismatch(es), digest %s\n",
              static_cast<unsigned long long>(clean),
              static_cast<unsigned long long>(tripped),
              digest_trips ? "differs" : "UNCHANGED");
  const bool ok = clean == 0 && tripped == 1 && digest_trips;
  std::printf("oracle self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-8s %-38s %16.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--oracle-selftest") return oracle_selftest();
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      if (!parse_u64(argv[++i], &cfg.seed)) return usage("bad --seed");
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      cfg.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(cfg.seconds > 0.0) || cfg.seconds > 3600.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (arg == "--out-dir" && has_value) {
      cfg.out_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }

  Outcome (*run)(const Config&) = nullptr;
  if (cfg.workload == "fig10_sweep") run = run_fig10_sweep;
  if (cfg.workload == "long_phase") run = run_long_phase;
  if (cfg.workload == "session_host") run = run_session_host;
  if (run == nullptr) return usage("unknown --workload");

  std::printf("perfbench %s: seed %llu, %.3g s, trace %d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? ", smoke" : "");
  std::fflush(stdout);
  Outcome out = run(cfg);
  record_host_facts(&out);

  const std::vector<Metric>& metrics =
      cfg.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      out.fail("metric " + m.name + " is not finite");
    }
  }
  for (const auto& [key, value] : out.facts) {
    std::printf("  fact     %-38s %s\n", key.c_str(), value.c_str());
  }
  print_metrics("report", out.report);
  print_metrics(cfg.trace ? "layer" : "e2e", metrics);
  const double fail_frac = out.attempted == 0
                               ? 0.0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted);
  std::printf("  %-8s %-38s %16.6g (%llu of %llu)\n", "report", "fail_frac",
              fail_frac, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : out.failures) {
    std::printf("  MISMATCH %s\n", f.c_str());
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

// The supervisor's on-disk surfaces: crash-directive parsing, grid
// identity, the result store in its directory and the quarantine
// manifest — exercised through the public API (run / read_sweep_status)
// plus direct byte-level corruption of the files, the way a torn disk or
// a stray writer would produce them.

#include "exp/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "exp/result_cache.hpp"
#include "hal/fault_injection.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_supervise_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }
  /// The supervisor's append log (a cache shard) for `grid`.
  std::string log(const SweepGrid& grid) const {
    return (root_ / ("shard-log-" + grid_digest(grid).hex().substr(0, 16) +
                     ".bin"))
        .string();
  }
  std::string manifest() const {
    return (root_ / kQuarantineFileName).string();
  }

 private:
  fs::path root_;
};

/// Tiny but real grid: one baseline point and one paired policy point,
/// `reps` seeds each — co-simulation milliseconds, not minutes.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps,
                    uint64_t seed0 = 900) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  const int base =
      grid.add_default("SOR-irt/Default", model, RunOptions{}, reps, seed0);
  grid.add_policy("SOR-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, reps, seed0, base);
  return grid;
}

bool tables_identical(const std::vector<RunResult>& a,
                      const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (encode_result(a[i]) != encode_result(b[i])) return false;
  }
  return true;
}

/// Flip one byte at `offset` (negative: from the end) — the bit-rot /
/// torn-write shape the checksums must catch.
void corrupt_byte(const std::string& path, int64_t offset) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const size_t pos = static_cast<size_t>(
      offset >= 0 ? offset : static_cast<int64_t>(data.size()) + offset);
  ASSERT_LT(pos, data.size());
  data[pos] = static_cast<char>(data[pos] ^ 0x5a);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(CrashSpecParse, AcceptsEveryModeAndOptionalTimes) {
  std::string error;
  auto spec = parse_crash_spec("7:abort", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 7);
  EXPECT_EQ(spec->mode, CrashMode::kAbort);
  EXPECT_EQ(spec->times, -1);
  EXPECT_TRUE(spec->enabled());

  spec = parse_crash_spec("0:kill", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 0);
  EXPECT_EQ(spec->mode, CrashMode::kKill);

  spec = parse_crash_spec("3:hang", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mode, CrashMode::kHang);

  spec = parse_crash_spec("12:exit:2", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 12);
  EXPECT_EQ(spec->mode, CrashMode::kExit);
  EXPECT_EQ(spec->times, 2);
}

TEST(CrashSpecParse, RejectsEveryMalformedField) {
  for (const char* bad :
       {"", "abort", ":abort", "x:abort", "7:", "7:boom", "7:abort:0",
        "7:abort:-1", "7:abort:x", "1.5:abort"}) {
    std::string error;
    EXPECT_FALSE(parse_crash_spec(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("expects"), std::string::npos) << bad;
  }
}

TEST(GridDigest, TracksEverySpecByte) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid a = make_grid(machine, 2);
  const SweepGrid b = make_grid(machine, 2);
  EXPECT_EQ(grid_digest(a), grid_digest(b));
  // A different replicate count or seed base is a different campaign.
  EXPECT_NE(grid_digest(a), grid_digest(make_grid(machine, 3)));
  EXPECT_NE(grid_digest(a), grid_digest(make_grid(machine, 2, 901)));
}

TEST(Store, StatusReflectsACompletedRun) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("status");
  SweepSupervisor supervisor(grid, dir.path());
  SupervisorReport report;
  supervisor.run(&report);
  ASSERT_TRUE(report.completed);

  const SweepStatus status = read_sweep_status(dir.path());
  EXPECT_TRUE(status.manifest_present);
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.manifest.grid, grid_digest(grid));
  EXPECT_EQ(status.manifest.grid_size, grid.size());
  EXPECT_EQ(status.stored, grid.size());
  EXPECT_EQ(status.skipped_records, 0u);
  EXPECT_TRUE(status.manifest.quarantined.empty());
}

// The supervised directory is an ordinary cache store: every entry carries
// its canonical spec and re-simulates to the stored bytes (what
// `cuttlefishctl cache verify` checks).
TEST(Store, SupervisedDirIsAnOrdinaryCacheStore) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("asstore");
  SupervisorReport report;
  SweepSupervisor(grid, dir.path()).run(&report);
  ASSERT_TRUE(report.completed);

  ResultCache store(dir.path());
  ASSERT_EQ(store.size(), grid.size());
  for (size_t i = 0; i < store.size(); ++i) {
    ResultCache::EntryView view;
    ASSERT_TRUE(store.entry(i, &view));
    const auto decoded =
        decode_spec(view.spec_blob.data(), view.spec_blob.size());
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(encode_result(run_spec(decoded->spec)),
              encode_result(view.result))
        << "entry " << i;
  }
  // ...and a cached sweep of the same grid is served from it entirely.
  SweepRunStats stats;
  const auto cached = run_sweep(grid, nullptr, &store, &stats);
  EXPECT_EQ(stats.cache_hits, grid.size());
  EXPECT_TRUE(tables_identical(cached, run_sweep(grid)));
}

TEST(Store, TornTailCostsNothingAndResumeServesEverything) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("torn");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }

  // A torn append: the log gains garbage that never completed a record.
  {
    std::ofstream f(dir.log(grid), std::ios::binary | std::ios::app);
    f.write("torn-partial-record", 19);
  }
  const SweepStatus status = read_sweep_status(dir.path());
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.stored, grid.size());  // records before the tear survive
  EXPECT_EQ(status.skipped_records, 1u);

  // Resume serves everything from the store — byte-identical to a serial
  // run, nothing re-simulated.
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, grid.size());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

TEST(Store, TruncatedRecordCostsOnlyItsSpecAndTheAppendRepairsIt) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("midrec");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  // Cut into the last record's trailing checksum: that record must be
  // rejected, every earlier one kept.
  fs::resize_file(dir.log(grid), fs::file_size(dir.log(grid)) - 5);
  SweepStatus status = read_sweep_status(dir.path());
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.stored, grid.size() - 1);
  EXPECT_EQ(status.skipped_records, 1u);

  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, grid.size() - 1);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
  // The re-run spec's append first truncated the torn tail.
  status = read_sweep_status(dir.path());
  EXPECT_EQ(status.stored, grid.size());
  EXPECT_EQ(status.skipped_records, 0u);
}

TEST(Store, RefusesADifferentGrid) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempDir dir("wronggrid");
  const SweepGrid first = make_grid(machine, 2);
  {
    SupervisorReport report;
    SweepSupervisor(first, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  const SweepGrid other = make_grid(machine, 3);
  SupervisorReport report;
  const std::vector<RunResult> results =
      SweepSupervisor(other, dir.path()).run(&report);
  EXPECT_TRUE(results.empty());
  EXPECT_NE(report.error.find("different grid"), std::string::npos)
      << report.error;
  // Both digests are named so the operator can tell which flag drifted.
  EXPECT_NE(report.error.find(grid_digest(other).hex()), std::string::npos);
  EXPECT_NE(report.error.find(grid_digest(first).hex()), std::string::npos);
}

TEST(Store, CorruptLogHeaderCostsItsResultsNotCorrectness) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("hdr");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  corrupt_byte(dir.log(grid), 5);  // inside the format-version field
  SweepStatus status = read_sweep_status(dir.path());
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.stored, 0u);
  EXPECT_EQ(status.skipped_records, 1u);

  // No record of a foreign-looking file is trusted: everything re-runs,
  // and the log is re-created rather than appended behind a bad header.
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.executed, grid.size());
  EXPECT_TRUE(tables_identical(resumed, oracle));
  status = read_sweep_status(dir.path());
  EXPECT_EQ(status.stored, grid.size());
  EXPECT_EQ(status.skipped_records, 0u);
}

TEST(Store, FaultInjectedSpecsAreNeverPersisted) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const hal::FaultSchedule schedule = hal::FaultSchedule::transient_only(11);
  RunOptions faulted;
  faulted.faults = &schedule;
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  grid.add_default("clean", model, RunOptions{}, 2, 900);
  grid.add_default("faulted", model, faulted, 2, 900);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("faulted");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  // The schedule is not part of the digest: storing a faulted result
  // would serve it for the clean cell with the same key.
  EXPECT_EQ(read_sweep_status(dir.path()).stored, 2u);
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, 2u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

TEST(Store, ResumeRemovesScratchAKilledSupervisorLeft) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("scratch");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  // What a SIGKILL leaves: a worker's handoff file and the temp file of a
  // write that never reached its rename.
  for (const char* name : {"worker-1-0.res", "worker-0-2.res.tmp-99999",
                           "quarantine.manifest.tmp-99998"}) {
    std::ofstream(fs::path(dir.path()) / name) << "partial";
  }
  SupervisorReport report;
  SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  for (const auto& e : fs::directory_iterator(dir.path())) {
    const std::string name = e.path().filename().string();
    EXPECT_TRUE(name == kQuarantineFileName || name.rfind("shard-", 0) == 0)
        << "leftover " << name;
  }
}

TEST(Manifest, RecordsPoisonAndSurvivesStatusReads) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("manifest");
  SupervisorOptions opt;
  opt.max_attempts = 2;
  opt.backoff_base_s = 0.01;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kAbort;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 2u);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGABRT);

  const SweepStatus status = read_sweep_status(dir.path());
  ASSERT_EQ(status.manifest.quarantined.size(), 1u);
  EXPECT_EQ(status.manifest.quarantined[0].spec_index, 1u);
  EXPECT_EQ(status.manifest.quarantined[0].term_signal, SIGABRT);
  EXPECT_EQ(status.stored, grid.size() - 1);
}

TEST(Manifest, CorruptManifestDegradesToReattempt) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("manifest-corrupt");
  {
    SupervisorOptions opt;
    opt.max_attempts = 2;
    opt.backoff_base_s = 0.01;
    opt.crash.spec_index = 1;
    opt.crash.mode = CrashMode::kAbort;
    SupervisorReport report;
    SweepSupervisor(grid, dir.path(), opt).run(&report);
    ASSERT_TRUE(report.completed);
    ASSERT_EQ(report.quarantined.size(), 1u);
  }
  corrupt_byte(dir.manifest(), -3);
  // A torn manifest is reported, not trusted: a resume — here with the
  // crash hook off, the flake having "healed" — re-pins the grid,
  // re-attempts the spec and completes the full table. Re-pinning is safe
  // because the store is content-addressed.
  const SweepStatus status = read_sweep_status(dir.path());
  EXPECT_TRUE(status.manifest_present);
  EXPECT_FALSE(status.valid);
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
  EXPECT_TRUE(read_sweep_status(dir.path()).valid);
}

}  // namespace
}  // namespace cuttlefish::exp

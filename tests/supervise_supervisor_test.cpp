// The supervisor's process-level fault machinery, end to end against
// real forked workers: clean-run byte identity with run_sweep, every
// deterministic crash mode (abort / kill / hang / exit), bounded-retry
// recovery, whole-run budgets, and the acceptance-criterion resume — a
// supervisor SIGKILLed mid-campaign takes its workers with it, and its
// successor reproduces the uninterrupted table bit for bit.

#include "exp/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "exp/result_cache.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_supervisor_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

SweepGrid make_grid(const sim::MachineConfig& machine, int reps) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("Heat-irt");
  const int base =
      grid.add_default("Heat-irt/Default", model, RunOptions{}, reps, 700);
  grid.add_policy("Heat-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, reps, 700, base);
  return grid;
}

::testing::AssertionResult tables_identical(
    const std::vector<RunResult>& a, const std::vector<RunResult>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (encode_result(a[i]) != encode_result(b[i])) {
      return ::testing::AssertionFailure() << "bytes differ at spec " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Fast-retry defaults so the failure tests spend their time in the
/// co-simulations, not in backoff sleeps.
SupervisorOptions fast_options() {
  SupervisorOptions opt;
  opt.max_workers = 2;
  opt.backoff_base_s = 0.01;
  opt.backoff_max_s = 0.05;
  return opt;
}

TEST(Supervisor, CleanRunIsByteIdenticalToRunSweep) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("clean");
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.executed, grid.size());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(tables_identical(supervised, oracle));
}

TEST(Supervisor, PoisonSpecIsQuarantinedAfterKAttempts) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("poison");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 3;
  opt.crash.spec_index = 2;
  opt.crash.mode = CrashMode::kAbort;  // every attempt: true poison
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), opt).run(&report);

  // The sweep completed *around* the poison spec.
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 2u);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGABRT);
  EXPECT_FALSE(report.quarantined[0].timed_out);
  EXPECT_EQ(report.executed, grid.size() - 1);

  // Every healthy cell matches the oracle; the poison cell is empty.
  ASSERT_EQ(supervised.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(encode_result(supervised[i]), encode_result(oracle[i]))
        << "spec " << i;
  }
  EXPECT_EQ(encode_result(supervised[2]), encode_result(RunResult{}));
}

TEST(Supervisor, ExitModeRecordsTheWorkersExitStatus) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("exitmode");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 2;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kExit;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].exit_status, 41);
  EXPECT_EQ(report.quarantined[0].term_signal, 0);
  EXPECT_FALSE(report.quarantined[0].timed_out);
}

TEST(Supervisor, HangingWorkerDiesToThePerSpecDeadline) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("hang");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 2;
  opt.spec_timeout_s = 0.3;
  opt.crash.spec_index = 0;
  opt.crash.mode = CrashMode::kHang;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 0u);
  EXPECT_TRUE(report.quarantined[0].timed_out);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGKILL);
}

TEST(Supervisor, TransientCrashIsRetriedToFullIdentity) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("transient");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 3;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kKill;
  opt.crash.times = 1;  // only the first attempt crashes: a flake
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_GE(report.retries, 1u);
  EXPECT_TRUE(tables_identical(supervised, oracle));
}

TEST(Supervisor, WholeRunBudgetLeavesAResumableStore) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("budget");
  {
    SupervisorOptions opt = fast_options();
    opt.max_workers = 1;
    opt.total_timeout_s = 0.4;
    opt.crash.spec_index = 0;
    opt.crash.mode = CrashMode::kHang;  // wedge the first worker
    SupervisorReport report;
    const std::vector<RunResult> partial =
        SweepSupervisor(grid, dir.path(), opt).run(&report);
    EXPECT_FALSE(report.completed);
    EXPECT_TRUE(report.error.empty());  // budget overrun is not an error
    EXPECT_FALSE(report.unfinished.empty());
    EXPECT_EQ(partial.size(), grid.size());
  }
  // The hang has "healed": a plain resume finishes the campaign.
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

/// Child pids of `pid` (its main thread's children, which is where the
/// supervisor forks its workers).
std::vector<pid_t> children_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" +
                   std::to_string(pid) + "/children");
  std::vector<pid_t> out;
  for (pid_t child; in >> child;) out.push_back(child);
  return out;
}

/// A process is gone once /proc no longer lists it or it is a zombie
/// waiting for a reaper (init in a container may never reap it).
bool process_gone(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  if (!in) return true;
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  return close != std::string::npos && close + 2 < line.size() &&
         line[close + 2] == 'Z';
}

/// Results in the store of a supervisor working in `dir`.
size_t stored_results(const std::string& dir) {
  size_t stored = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("shard-", 0) == 0) {
      stored = ResultCache(dir).size();
      break;
    }
  }
  return stored;
}

// The acceptance criterion: SIGKILL the *supervisor itself* mid-run,
// then resume in a fresh process and require the merged table to be
// byte-identical to an uninterrupted run. The doomed supervisor runs in
// a fork with one worker wedged on a hang and the other working through
// the grid; the parent waits until results land in the store, kills the
// supervisor, and requires its workers to die with it before resuming
// in-process.
TEST(Supervisor, ResumeAfterSupervisorSigkillIsByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("sigkill");

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    SupervisorOptions opt;
    opt.max_workers = 2;
    opt.spec_timeout_s = 600.0;  // the hang outlives the test
    opt.crash.spec_index = 0;
    opt.crash.mode = CrashMode::kHang;
    SweepSupervisor(grid, dir.path(), opt).run(nullptr);
    ::_exit(0);
  }

  // Wait for a stored result while the hanging worker is still alive.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool saw_progress = false;
  std::vector<pid_t> workers;
  while (std::chrono::steady_clock::now() < deadline) {
    workers = children_of(child);
    if (!workers.empty() && stored_results(dir.path()) >= 1) {
      saw_progress = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(saw_progress) << "doomed supervisor never stored a result";

  // Its workers, the hung one included, die with it.
  const auto reap_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (const pid_t worker : workers) {
    while (!process_gone(worker) &&
           std::chrono::steady_clock::now() < reap_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(process_gone(worker)) << "orphaned worker " << worker;
    ::kill(worker, SIGKILL);  // a failed check must not leave it running
  }

  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.error.empty());
  EXPECT_GE(report.resumed, 1u);
  EXPECT_EQ(report.resumed + report.executed, grid.size());
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(tables_identical(resumed, oracle));
  // Nothing but the store and the manifest is left behind.
  for (const auto& e : fs::directory_iterator(dir.path())) {
    const std::string name = e.path().filename().string();
    EXPECT_TRUE(name == kQuarantineFileName || name.rfind("shard-", 0) == 0)
        << "leftover " << name;
  }
}

}  // namespace
}  // namespace cuttlefish::exp

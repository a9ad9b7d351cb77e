#include "exp/supervisor.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/record_file.hpp"
#include "exp/result_cache.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kManifestMagic = 0x4346514du;  // "CFQM"
/// v2: the manifest carries the grid pin (digest + size).
constexpr uint32_t kManifestVersion = 2;
constexpr uint32_t kHandoffMagic = 0x43465748u;  // "CFWH"
constexpr uint32_t kHandoffVersion = 1;
/// Bytes of one encoded QuarantineRow.
constexpr size_t kManifestRowBytes = 8 + 4 + 1 + 4 + 4;

/// Exit code of a worker whose co-simulation succeeded but whose result
/// file could not be written (distinguishable from the crash-hook's 41).
constexpr int kWorkerWriteFailure = 42;
/// Exit code of a worker whose supervisor died before it could arm the
/// parent-death signal.
constexpr int kWorkerOrphaned = 43;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- worker ------------------------------------------------------------

[[noreturn]] void crash_now(CrashMode mode) {
  switch (mode) {
    case CrashMode::kAbort:
      std::abort();
    case CrashMode::kKill:
      ::kill(::getpid(), SIGKILL);
      break;
    case CrashMode::kHang:
    case CrashMode::kNone:
      break;
    case CrashMode::kExit:
      ::_exit(41);
  }
  // kHang (and the instant between kill() and SIGKILL delivery): sleep
  // until the supervisor's deadline SIGKILLs us.
  for (;;) ::pause();
}

/// The forked worker: one spec, one result file, _exit. Never returns to
/// the supervisor's code; _exit skips atexit/stdio so the parent's
/// buffered output is not replayed. The worker dies with its supervisor:
/// a SIGKILLed supervisor must not leave hung or still-simulating orphans
/// behind while its successor re-runs their specs.
[[noreturn]] void worker_main(const SweepGrid& grid, uint64_t spec,
                              uint32_t attempt, const CrashSpec& crash,
                              const std::string& result_path,
                              pid_t supervisor) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != supervisor) ::_exit(kWorkerOrphaned);
  if (crash.enabled() &&
      crash.spec_index == static_cast<int64_t>(spec) &&
      (crash.times < 0 || static_cast<int>(attempt) < crash.times)) {
    crash_now(crash.mode);
  }
  const bool written = write_file_atomic(
      result_path, encode_handoff(run_spec(grid.specs()[spec])));
  ::_exit(written ? 0 : kWorkerWriteFailure);
}

/// Parent-side read of a worker's result file: the record frame and a
/// full decode must both pass, or the attempt counts as a failure.
bool read_worker_result(const std::string& path, RunResult* out,
                        std::string* bytes) {
  std::string file;
  std::string_view view;
  if (!read_file(path, &file) || !decode_handoff(file, out, &view)) {
    return false;
  }
  *bytes = std::string(view);
  return true;
}

/// Scratch a killed supervisor leaves behind: worker handoff files and the
/// record-file primitive's temp files. Nothing reads them.
void remove_scratch(const std::string& dir) {
  std::error_code ec;
  std::vector<fs::path> scratch;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("worker-", 0) == 0 ||
        name.find(".tmp-") != std::string::npos) {
      scratch.push_back(e.path());
    }
  }
  for (const fs::path& path : scratch) fs::remove(path, ec);
}

std::string describe_failure(const QuarantineRow& row) {
  char buf[96];
  if (row.timed_out) {
    std::snprintf(buf, sizeof(buf), "timed out (SIGKILLed by deadline)");
  } else if (row.term_signal != 0) {
    std::snprintf(buf, sizeof(buf), "killed by signal %d", row.term_signal);
  } else if (row.exit_status >= 0) {
    std::snprintf(buf, sizeof(buf), "exited with status %d",
                  row.exit_status);
  } else {
    std::snprintf(buf, sizeof(buf), "produced an unreadable result");
  }
  return buf;
}

}  // namespace

// ---- crash-spec parsing ------------------------------------------------

std::optional<CrashSpec> parse_crash_spec(const std::string& text,
                                          std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CrashSpec> {
    if (error != nullptr) {
      *error = "expects <spec-index>:<abort|kill|hang|exit>[:times], " + why;
    }
    return std::nullopt;
  };
  const auto colon = text.find(':');
  if (colon == std::string::npos || colon == 0) {
    return fail("got '" + text + "'");
  }
  char* end = nullptr;
  const unsigned long long index =
      std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + colon) {
    return fail("spec index '" + text.substr(0, colon) +
                "' is not an integer");
  }
  std::string mode_text = text.substr(colon + 1);
  int times = -1;
  if (const auto second = mode_text.find(':');
      second != std::string::npos) {
    const std::string times_text = mode_text.substr(second + 1);
    mode_text.resize(second);
    const long t = std::strtol(times_text.c_str(), &end, 10);
    if (end == times_text.c_str() || *end != '\0' || t <= 0) {
      return fail("times '" + times_text + "' is not a positive integer");
    }
    times = static_cast<int>(t);
  }
  CrashSpec crash;
  crash.spec_index = static_cast<int64_t>(index);
  crash.times = times;
  if (mode_text == "abort") {
    crash.mode = CrashMode::kAbort;
  } else if (mode_text == "kill") {
    crash.mode = CrashMode::kKill;
  } else if (mode_text == "hang") {
    crash.mode = CrashMode::kHang;
  } else if (mode_text == "exit") {
    crash.mode = CrashMode::kExit;
  } else {
    return fail("unknown mode '" + mode_text + "'");
  }
  return crash;
}

// ---- grid identity -----------------------------------------------------

SpecDigest grid_digest(const SweepGrid& grid) {
  BlobWriter w;
  w.u64(grid.size());
  for (const RunSpec& spec : grid.specs()) {
    const std::string blob = encode_spec(spec);
    w.u32(static_cast<uint32_t>(blob.size()));
    w.bytes(blob.data(), blob.size());
  }
  return digest_bytes(w.data().data(), w.size());
}

// ---- on-disk codecs ---------------------------------------------------

std::string encode_manifest(const SweepManifest& manifest) {
  BlobWriter w;
  w.u64(manifest.grid.hi);
  w.u64(manifest.grid.lo);
  w.u64(manifest.grid_size);
  w.u64(manifest.quarantined.size());
  for (const QuarantineRow& row : manifest.quarantined) {
    w.u64(row.spec_index);
    w.u32(row.attempts);
    w.u8(row.timed_out ? 1 : 0);
    w.i32(row.exit_status);
    w.i32(row.term_signal);
  }
  std::string file = record_file_header(kManifestMagic, kManifestVersion);
  append_record(&file, w.data());
  return file;
}

bool decode_manifest(std::string_view file, SweepManifest* out) {
  std::string_view payload;
  if (!decode_single_record(file, kManifestMagic, kManifestVersion,
                            &payload)) {
    return false;
  }
  BlobReader r(payload.data(), payload.size());
  SweepManifest manifest;
  manifest.grid.hi = r.u64();
  manifest.grid.lo = r.u64();
  manifest.grid_size = r.u64();
  const uint64_t count = r.u64();
  if (!r.ok() || count != r.remaining() / kManifestRowBytes ||
      r.remaining() % kManifestRowBytes != 0) {
    return false;
  }
  manifest.quarantined.resize(count);
  for (QuarantineRow& row : manifest.quarantined) {
    row.spec_index = r.u64();
    row.attempts = r.u32();
    row.timed_out = r.u8() != 0;
    row.exit_status = r.i32();
    row.term_signal = r.i32();
  }
  *out = std::move(manifest);
  return true;
}

std::string encode_handoff(const RunResult& result) {
  std::string file = record_file_header(kHandoffMagic, kHandoffVersion);
  append_record(&file, encode_result(result));
  return file;
}

bool decode_handoff(std::string_view file, RunResult* out,
                    std::string_view* bytes) {
  std::string_view payload;
  if (!decode_single_record(file, kHandoffMagic, kHandoffVersion,
                            &payload) ||
      !decode_result(payload.data(), payload.size(), out)) {
    return false;
  }
  *bytes = payload;
  return true;
}

// ---- supervisor --------------------------------------------------------

SweepSupervisor::SweepSupervisor(const SweepGrid& grid, std::string dir,
                                 SupervisorOptions options)
    : grid_(&grid), dir_(std::move(dir)), options_(options) {}

std::vector<RunResult> SweepSupervisor::run(SupervisorReport* report_out) {
  SupervisorReport report;
  const std::vector<RunSpec>& specs = grid_->specs();
  const uint64_t n = grid_->size();
  std::vector<RunResult> results(n);
  const auto finish = [&](bool ok) {
    report.completed = ok;
    if (report_out != nullptr) *report_out = report;
    return results;
  };
  const auto fail = [&](const std::string& why) {
    CF_LOG_ERROR("supervisor: %s", why.c_str());
    report.error = why;
    results.clear();
    if (report_out != nullptr) *report_out = report;
    return results;
  };

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return fail("cannot create sweep dir " + dir_ + ": " + ec.message());
  }
  const SpecDigest digest = grid_digest(*grid_);
  const std::string manifest_path = dir_ + "/" + kQuarantineFileName;

  // The deterministic self-kill hook: explicit options win, otherwise
  // CUTTLEFISH_CRASH_AT (the env form is what `micro_sweep --supervised`
  // under CI exports to its own workers).
  CrashSpec crash = options_.crash;
  if (!crash.enabled()) {
    if (const char* env = std::getenv("CUTTLEFISH_CRASH_AT")) {
      std::string parse_error;
      const auto parsed = parse_crash_spec(env, &parse_error);
      if (!parsed) return fail("CUTTLEFISH_CRASH_AT " + parse_error);
      crash = *parsed;
    }
  }

  // ---- the grid pin: adopt the manifest or refuse a different grid -----
  SweepManifest manifest;
  {
    std::string data;
    if (read_file(manifest_path, &data)) {
      if (!decode_manifest(data, &manifest)) {
        // The store is content-addressed, so re-pinning cannot serve a
        // wrong result; it only forgets the poison rows.
        CF_LOG_WARN("supervisor: ignoring %s (torn or corrupt); quarantined "
                    "specs will be re-attempted",
                    manifest_path.c_str());
        manifest = SweepManifest{};
      } else if (manifest.grid != digest || manifest.grid_size != n) {
        return fail(manifest_path + " was written by a different grid (" +
                    std::to_string(manifest.grid_size) + " specs, digest " +
                    manifest.grid.hex() + "; this grid: " +
                    std::to_string(n) + " specs, digest " + digest.hex() +
                    ") — resume with the original flags or pick a fresh "
                    "sweep dir");
      }
    }
  }
  manifest.grid = digest;
  manifest.grid_size = n;
  remove_scratch(dir_);
  if (!write_file_atomic(manifest_path, encode_manifest(manifest))) {
    return fail("cannot write " + manifest_path);
  }

  enum class SpecState : uint8_t { kPending, kRunning, kDone, kQuarantined };
  std::vector<SpecState> state(n, SpecState::kPending);
  std::vector<uint32_t> attempts(n, 0);

  // ---- resume: a cached re-run where every stored spec hits ------------
  // Fault-injected specs are never looked up or persisted: the schedule
  // is not part of the digest identity (the same rule as run_sweep's
  // cache path).
  ResultCache store(dir_);
  const std::string log = digest.hex().substr(0, 16);
  std::vector<SpecDigest> digests(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (specs[i].options.faults != nullptr) continue;
    digests[i] = digest_spec(specs[i]);
    if (store.lookup(digests[i], &results[i])) {
      state[i] = SpecState::kDone;
      ++report.resumed;
    }
  }
  std::vector<QuarantineRow> adopted;
  for (const QuarantineRow& row : manifest.quarantined) {
    if (row.spec_index >= n || state[row.spec_index] != SpecState::kPending) {
      continue;
    }
    state[row.spec_index] = SpecState::kQuarantined;
    adopted.push_back(row);
  }
  manifest.quarantined = std::move(adopted);

  const auto quarantine = [&](const QuarantineRow& row) {
    state[row.spec_index] = SpecState::kQuarantined;
    manifest.quarantined.push_back(row);
    if (!write_file_atomic(manifest_path, encode_manifest(manifest))) {
      CF_LOG_ERROR("supervisor: cannot write %s", manifest_path.c_str());
    }
  };

  // ---- the fork / reap / retry loop ------------------------------------
  struct Active {
    pid_t pid = -1;
    uint64_t spec = 0;
    uint32_t attempt = 0;
    double deadline = 0.0;  // 0 = no per-spec budget
    bool timed_out = false;
    std::string result_path;
  };
  std::vector<Active> active;
  std::vector<double> ready_at(n, 0.0);
  const pid_t supervisor = ::getpid();
  const double t0 = now_s();
  const double total_deadline =
      options_.total_timeout_s > 0 ? t0 + options_.total_timeout_s : 0.0;
  const int max_workers = std::max(1, options_.max_workers);
  const int max_attempts = std::max(1, options_.max_attempts);
  uint64_t pending = 0;
  for (const SpecState s : state) {
    if (s == SpecState::kPending) ++pending;
  }

  while (pending > 0 || !active.empty()) {
    double now = now_s();

    // Whole-run (per-shard) budget: kill everything, keep the store,
    // report what is left — a resume continues from here.
    if (total_deadline > 0 && now >= total_deadline) {
      for (const Active& a : active) ::kill(a.pid, SIGKILL);
      for (const Active& a : active) {
        int status = 0;
        ::waitpid(a.pid, &status, 0);
        fs::remove(a.result_path, ec);
      }
      active.clear();
      for (uint64_t i = 0; i < n; ++i) {
        if (state[i] == SpecState::kPending ||
            state[i] == SpecState::kRunning) {
          report.unfinished.push_back(i);
        }
      }
      CF_LOG_WARN("supervisor: whole-run budget of %.1fs exhausted with "
                  "%zu spec(s) unfinished (store kept; resume to "
                  "continue)",
                  options_.total_timeout_s, report.unfinished.size());
      report.quarantined = manifest.quarantined;
      return finish(false);
    }

    // Launch workers into free slots (respecting retry backoff).
    bool progressed = false;
    for (uint64_t i = 0;
         i < n && static_cast<int>(active.size()) < max_workers &&
         pending > 0;
         ++i) {
      if (state[i] != SpecState::kPending || ready_at[i] > now) continue;
      Active a;
      a.spec = i;
      a.attempt = attempts[i];
      a.result_path = dir_ + "/worker-" + std::to_string(i) + "-" +
                      std::to_string(a.attempt) + ".res";
      a.pid = ::fork();
      if (a.pid < 0) {
        CF_LOG_ERROR("supervisor: fork failed: %s", std::strerror(errno));
        ready_at[i] = now + 0.1;
        continue;
      }
      if (a.pid == 0) {
        worker_main(*grid_, i, a.attempt, crash, a.result_path, supervisor);
      }
      a.deadline =
          options_.spec_timeout_s > 0 ? now + options_.spec_timeout_s : 0.0;
      state[i] = SpecState::kRunning;
      --pending;
      active.push_back(std::move(a));
      progressed = true;
    }

    // SIGKILL workers past their per-spec deadline; the reap below sees
    // the signal and books the attempt as a timeout.
    now = now_s();
    for (Active& a : active) {
      if (a.deadline > 0 && now >= a.deadline && !a.timed_out) {
        a.timed_out = true;
        CF_LOG_WARN("supervisor: spec %llu overran its %.1fs budget "
                    "(attempt %u); SIGKILLing worker %d",
                    static_cast<unsigned long long>(a.spec),
                    options_.spec_timeout_s, a.attempt + 1,
                    static_cast<int>(a.pid));
        ::kill(a.pid, SIGKILL);
      }
    }

    // Reap finished workers.
    for (size_t k = 0; k < active.size();) {
      Active& a = active[k];
      int status = 0;
      const pid_t r = ::waitpid(a.pid, &status, WNOHANG);
      if (r == 0) {
        ++k;
        continue;
      }
      progressed = true;
      std::string bytes;
      const bool ok =
          r == a.pid && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
          read_worker_result(a.result_path, &results[a.spec], &bytes);
      fs::remove(a.result_path, ec);
      attempts[a.spec] = a.attempt + 1;
      if (ok) {
        state[a.spec] = SpecState::kDone;
        ++report.executed;
        // A failed append (logged) costs only resumability: the result
        // is already in the table.
        if (specs[a.spec].options.faults == nullptr) {
          store.append(log, ResultCache::Insert{digests[a.spec],
                                                encode_spec(specs[a.spec]),
                                                std::move(bytes)});
        }
      } else {
        QuarantineRow row;
        row.spec_index = a.spec;
        row.attempts = a.attempt + 1;
        row.timed_out = a.timed_out;
        row.exit_status =
            (r == a.pid && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
        row.term_signal =
            (r == a.pid && WIFSIGNALED(status)) ? WTERMSIG(status) : 0;
        const std::string why = describe_failure(row);
        if (static_cast<int>(row.attempts) >= max_attempts) {
          CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d — "
                      "quarantined as poison; the sweep continues "
                      "without it",
                      static_cast<unsigned long long>(a.spec), why.c_str(),
                      row.attempts, max_attempts);
          quarantine(row);
        } else {
          const uint32_t shift = std::min(a.attempt, 20u);
          const double backoff =
              std::min(options_.backoff_max_s,
                       options_.backoff_base_s *
                           static_cast<double>(uint64_t{1} << shift));
          CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d; "
                      "retrying in %.2fs",
                      static_cast<unsigned long long>(a.spec), why.c_str(),
                      row.attempts, max_attempts, backoff);
          ready_at[a.spec] = now_s() + backoff;
          state[a.spec] = SpecState::kPending;
          ++pending;
          ++report.retries;
        }
      }
      active.erase(active.begin() + static_cast<long>(k));
    }

    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  report.quarantined = manifest.quarantined;
  return finish(true);
}

// ---- offline status ----------------------------------------------------

SweepStatus read_sweep_status(const std::string& dir) {
  SweepStatus status;
  std::string data;
  if (!read_file(dir + "/" + kQuarantineFileName, &data)) return status;
  status.manifest_present = true;
  status.valid = decode_manifest(data, &status.manifest);
  const ResultCache::Stats stats = ResultCache(dir).stats();
  status.stored = stats.entries;
  status.skipped_records = stats.skipped_records;
  return status;
}

}  // namespace cuttlefish::exp

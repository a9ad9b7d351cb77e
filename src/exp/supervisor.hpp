#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/spec_digest.hpp"
#include "exp/sweep.hpp"

/// Process-level sweep supervision (docs/SUPERVISOR.md). PR-7's fault
/// model covers devices that misbehave *inside* a live process; this
/// layer covers the process itself dying — a crashed, hung or OOM-killed
/// worker must cost one cell's worth of retries, never the campaign.
///
/// The supervisor forks one worker per spec, enforces per-spec and
/// whole-run wall-clock deadlines (SIGKILL on overrun), retries failed
/// work with exponential backoff, and quarantines poison specs: a spec
/// that kills its worker `max_attempts` times is skipped, recorded in a
/// checksummed quarantine manifest with its exit status/signal, and the
/// sweep completes without it. Every accepted result is appended to a
/// ResultCache store in the supervisor's directory, keyed by spec digest
/// and holding the worker's own encode_result bytes. A supervisor that is
/// itself SIGKILLed mid-run resumes as a cached re-run — every stored spec
/// hits, only the unfinished ones fork — and the finished table is
/// bit-identical to an uninterrupted single-process run. The directory is
/// an ordinary cache store (`cuttlefishctl cache stats|verify` work on it).
///
/// Failure testing is deterministic: CUTTLEFISH_CRASH_AT=<spec>:<mode>
/// (modes abort | kill | hang | exit, optional :N = first N attempts
/// only) makes the worker for that spec index kill itself, mirroring the
/// op-indexed FaultSchedule of the in-process fault layer.
namespace cuttlefish::exp {

/// The grid pin + quarantine manifest inside the supervisor's directory.
inline constexpr const char* kQuarantineFileName = "quarantine.manifest";

/// How a worker kills itself under the CUTTLEFISH_CRASH_AT hook.
enum class CrashMode : uint8_t {
  kNone = 0,
  kAbort,  // SIGABRT via abort()
  kKill,   // SIGKILL via kill(getpid(), SIGKILL)
  kHang,   // sleep forever; dies to the supervisor's per-spec timeout
  kExit,   // _exit(41)
};

/// Parsed CUTTLEFISH_CRASH_AT=<spec-index>:<mode>[:times] directive.
struct CrashSpec {
  int64_t spec_index = -1;  // -1 = hook disabled
  CrashMode mode = CrashMode::kNone;
  /// Crash only on the first `times` attempts (-1 = every attempt). A
  /// finite count exercises the retry path; the default exercises
  /// quarantine.
  int times = -1;

  bool enabled() const { return spec_index >= 0 && mode != CrashMode::kNone; }
};

/// Strict parse of the <spec-index>:<mode>[:times] form. nullopt (with
/// *error set) on any malformed field — a typo'd crash directive must
/// fail the run loudly, not silently test nothing.
std::optional<CrashSpec> parse_crash_spec(const std::string& text,
                                          std::string* error);

struct SupervisorOptions {
  /// Concurrently forked workers (each runs one spec at a time).
  int max_workers = 1;
  /// Attempts before a spec is quarantined as poison (K in the docs).
  int max_attempts = 3;
  /// Per-spec wall-clock budget; an overrunning worker is SIGKILLed and
  /// the attempt counts as a timeout failure. <= 0 disables.
  double spec_timeout_s = 300.0;
  /// Whole-run (per-shard) wall-clock budget: on overrun every active
  /// worker is SIGKILLed and the run returns incomplete — the store keeps
  /// what finished, so a later resume picks up the rest. <= 0 disables.
  double total_timeout_s = 0.0;
  /// Exponential retry backoff: attempt k waits base * 2^(k-1), capped.
  double backoff_base_s = 0.05;
  double backoff_max_s = 2.0;
  /// Deterministic worker self-kill hook. When disabled here, the
  /// CUTTLEFISH_CRASH_AT environment variable is consulted instead.
  CrashSpec crash;
};

/// One quarantined (or failed) spec, as recorded in the manifest.
struct QuarantineRow {
  uint64_t spec_index = 0;
  uint32_t attempts = 0;   // worker launches consumed by this spec
  bool timed_out = false;  // last failure was a per-spec deadline SIGKILL
  int exit_status = -1;    // WEXITSTATUS when the worker exited; else -1
  int term_signal = 0;     // WTERMSIG when the worker was signaled; else 0
};

struct SupervisorReport {
  /// Every non-quarantined spec finished (quarantine does not clear it:
  /// a sweep that completed *around* poison is still complete).
  bool completed = false;
  std::string error;   // non-empty when the run could not start at all
  size_t resumed = 0;  // specs served from the store of a prior run
  size_t executed = 0; // specs a worker finished this invocation
  size_t retries = 0;  // failed attempts that were retried
  std::vector<QuarantineRow> quarantined;
  /// Specs abandoned pending (total_timeout_s overrun); resumable.
  std::vector<uint64_t> unfinished;
};

/// Identity of a grid for resume matching: digest over every spec's
/// canonical encode_spec bytes (spec_digest.hpp), so a directory is only
/// ever resumed by the exact grid that started it.
SpecDigest grid_digest(const SweepGrid& grid);

/// `<dir>/quarantine.manifest`, a single-record file
/// (exp/record_file.hpp) rewritten temp + rename: the grid pin plus one row
/// per poisoned spec.
struct SweepManifest {
  SpecDigest grid = {0, 0};
  uint64_t grid_size = 0;
  std::vector<QuarantineRow> quarantined;
};

std::string encode_manifest(const SweepManifest& manifest);
/// False on anything but a well-formed manifest file.
bool decode_manifest(std::string_view file, SweepManifest* out);

/// The worker handoff file: one record holding the worker's encode_result
/// bytes. Decoding checks the frame and fully decodes the result; on
/// success `*bytes` views the result bytes inside `file`.
std::string encode_handoff(const RunResult& result);
bool decode_handoff(std::string_view file, RunResult* out,
                    std::string_view* bytes);

class SweepSupervisor {
 public:
  /// The grid must outlive the supervisor. `dir` is created if missing; a
  /// directory pinned to the same grid is resumed, one pinned to a
  /// different grid is refused.
  SweepSupervisor(const SweepGrid& grid, std::string dir,
                  SupervisorOptions options = {});

  /// Run (or resume) the sweep. Results are indexed like grid.specs();
  /// quarantined / unfinished cells are default-constructed. On a
  /// grid-identity error the vector is empty and report->error says why.
  std::vector<RunResult> run(SupervisorReport* report = nullptr);

  const std::string& dir() const { return dir_; }

 private:
  const SweepGrid* grid_;
  std::string dir_;
  SupervisorOptions options_;
};

/// Offline inspection for `cuttlefishctl sweep status`: the manifest's
/// grid pin and quarantine rows plus the store's entry count, without
/// needing the grid.
struct SweepStatus {
  bool manifest_present = false;
  bool valid = false;  // the manifest decoded
  SweepManifest manifest;
  uint64_t stored = 0;           // results in the directory's store
  uint64_t skipped_records = 0;  // torn or corrupt records the scan dropped
};

SweepStatus read_sweep_status(const std::string& dir);

}  // namespace cuttlefish::exp

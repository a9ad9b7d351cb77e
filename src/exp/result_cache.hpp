#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exp/driver.hpp"
#include "exp/spec_digest.hpp"

/// On-disk content-addressed store for sweep results: the one persistence
/// story behind cached sweeps, `--shard i/N` fleets and supervised resume.
/// Results are stored as byte-exact RunResult codec output, so a stored
/// result is indistinguishable, bit for bit, from a fresh co-simulation.
///
/// Store layout (`<dir>/`):
///   shard-<hex16>.bin   record files (exp/record_file.hpp) written whole
///                       by one cached sweep, named by their own content
///                       hash (so merging two stores is copying files;
///                       identical shards collide to one)
///   shard-log-<hex16>.bin
///                       an append log: the supervisor adds each accepted
///                       result as it lands (`append`)
///   last_run.stats      hit/miss counters of the most recent cached sweep
///
/// Crash safety is the record-file primitive's: whole shards are written
/// temp + rename, every record carries a checksum, the open-time scan stops
/// at the first bad record (a truncated tail costs its records, never
/// wrong results), and an append log's torn tail is truncated before the
/// next append. The cache is a single-writer, single-reader object: the
/// sweep engine drives it from the coordinating thread only — workers
/// touch it never (lookups happen before the fan-out, inserts after the
/// join).
namespace cuttlefish::exp {

/// Byte-exact RunResult codec (versioned; scalars + timeline + TIPI node
/// summaries + controller stats, doubles as raw bits).
std::string encode_result(const RunResult& result);
bool decode_result(const void* data, size_t size, RunResult* out);

class ResultCache {
 public:
  /// Creates `dir` if missing and scans every shard into the in-memory
  /// index (digest -> file/offset; payloads stay on disk).
  explicit ResultCache(std::string dir);

  size_t size() const { return entries_.size(); }
  bool contains(const SpecDigest& digest) const {
    return index_.count(digest) != 0;
  }
  /// Serves a cached result, decoded from its shard file. False on a miss
  /// (including entries whose shard vanished or re-corrupted since the
  /// open-time scan — a failed read is demoted to a miss, never trusted).
  bool lookup(const SpecDigest& digest, RunResult* out);

  struct Insert {
    SpecDigest digest;
    std::string spec_blob;     // canonical spec bytes (enables `verify`)
    std::string result_bytes;  // encode_result output
  };
  /// Persists a batch as ONE new shard (temp + rename; no-op for an empty
  /// or fully duplicate batch). Entries already present are skipped.
  void insert_batch(const std::vector<Insert>& batch);

  /// Appends one entry to the append log `shard-log-<log>.bin` (created
  /// on first use; a torn tail is truncated first), on disk when this
  /// returns. True when the entry is stored, including when the store
  /// already held it.
  bool append(const std::string& log, const Insert& entry);

  struct Stats {
    size_t entries = 0;
    size_t shards = 0;
    uint64_t bytes = 0;            // on-disk shard bytes
    uint64_t skipped_records = 0;  // rejected by the open-time scan
  };
  Stats stats() const;

  struct LastRun {
    bool present = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  /// Written (temp + rename) by the sweep engine after every cached run.
  void note_run(uint64_t hits, uint64_t misses);
  LastRun last_run() const;

  /// Deletes oldest-first whole shards until the store is <= max_bytes;
  /// returns the bytes removed. The index is rebuilt from the survivors.
  uint64_t gc(uint64_t max_bytes);

  /// Indexed access for `cuttlefishctl cache verify`: the i-th entry's
  /// digest, canonical spec bytes and decoded result. False on read
  /// failure.
  struct EntryView {
    SpecDigest digest;
    std::string spec_blob;
    RunResult result;
  };
  bool entry(size_t i, EntryView* out);

  const std::string& dir() const { return dir_; }

 private:
  struct Shard {
    std::string path;
    uint64_t end = 0;  // end of the last good record (append point)
  };
  struct Entry {
    SpecDigest digest;
    size_t shard = 0;  // index into shards_
    uint64_t spec_offset = 0;
    uint32_t spec_len = 0;
    uint64_t result_offset = 0;
    uint32_t result_len = 0;
  };

  void scan_all();
  void scan_shard(const std::string& path);
  /// Indexes the entry framed by `payload` (at `offset` in shard `shard`);
  /// false when the payload is not a well-formed entry.
  bool index_entry(size_t shard, uint64_t offset, std::string_view payload);
  bool read_span(size_t shard, uint64_t offset, uint32_t len,
                 std::string* out) const;

  std::string dir_;
  std::vector<Shard> shards_;
  std::vector<Entry> entries_;
  std::unordered_map<SpecDigest, size_t, SpecDigestHash> index_;
  uint64_t skipped_records_ = 0;
};

}  // namespace cuttlefish::exp

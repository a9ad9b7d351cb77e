#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// The one checksummed record-file primitive behind every file the sweep
/// layer persists: result-cache shards (including the supervisor's
/// append log, which is a cache shard), the quarantine manifest and the
/// worker handoff file. Each format is a file magic plus the payloads it
/// frames; the framing, the checksum and the crash-safety rules live here
/// once.
///
///   file    u32 file magic · u32 format version · record*
///   record  u32 "CFRC" · u32 payload length · payload
///           · u64 checksum(payload length · payload)
///
/// The checksum is the low half of digest_bytes over those bytes.
///
/// Crash safety:
///  * Whole files are written temp + rename (write_file_atomic): the
///    destination keeps its old content or gains the complete new one.
///  * Readers scan front to back and stop at the first record whose frame
///    or checksum fails, so a torn append or bit rot costs the tail of the
///    file, never returns wrong bytes.
///  * Appenders truncate a torn tail before adding a record
///    (append_record_file), so one bad append never hides later ones.
namespace cuttlefish::exp {

/// Whole-file read. False if the file cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Write-temp-then-rename. The temp file is `<path>.tmp-<pid>`; false
/// (with a logged error) on any I/O failure, leaving `path` untouched.
bool write_file_atomic(const std::string& path, const std::string& body);

std::string record_file_header(uint32_t magic, uint32_t version);

/// Appends one framed record carrying `payload` to `file`.
void append_record(std::string* file, std::string_view payload);

/// Position of one record's payload inside its file.
struct RecordSpan {
  uint64_t offset = 0;
  uint32_t size = 0;
};

struct RecordScan {
  /// The file starts with the expected magic and version. When false no
  /// record is trusted and `end` is 0.
  bool header_ok = false;
  /// Every record before the first bad one, in file order.
  std::vector<RecordSpan> records;
  /// End of the last good record: bytes beyond it are a torn or corrupt
  /// tail.
  uint64_t end = 0;
};

RecordScan scan_records(std::string_view file, uint32_t magic,
                        uint32_t version);

/// The payload of a file that must hold exactly one record and nothing
/// after it (the manifest, the worker handoff). False otherwise.
bool decode_single_record(std::string_view file, uint32_t magic,
                          uint32_t version, std::string_view* payload);

/// Appends one record to the record file at `path`, whose scan ended at
/// `*end` (0 when the file is absent or not a valid file of this kind).
/// The record is written to the file before this returns, so it survives
/// the process being killed (it is not fsynced). A file without a valid header is replaced by a fresh header
/// (temp + rename); a torn tail beyond `*end` is truncated first. On
/// success `*end` is the new end of file, so the payload starts at
/// `*end - 8 - payload.size()`.
bool append_record_file(const std::string& path, uint32_t magic,
                        uint32_t version, std::string_view payload,
                        uint64_t* end);

}  // namespace cuttlefish::exp

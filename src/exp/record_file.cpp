#include "exp/record_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/spec_digest.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kRecordMagic = 0x43465243u;  // "CFRC"
constexpr size_t kHeaderBytes = 8;
/// Frame bytes around a payload: magic + length before, checksum after.
constexpr size_t kFrameBytes = 4 + 4 + 8;

uint64_t checksum64(const void* data, size_t size) {
  return digest_bytes(data, size).lo;
}

}  // namespace

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return false;
  *out = std::move(data);
  return true;
}

bool write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp =
      path + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      CF_LOG_ERROR("record file: cannot open %s for writing", tmp.c_str());
      return false;
    }
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out.good()) {
      CF_LOG_ERROR("record file: short write to %s", tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    CF_LOG_ERROR("record file: rename %s -> %s failed: %s", tmp.c_str(),
                 path.c_str(), ec.message().c_str());
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string record_file_header(uint32_t magic, uint32_t version) {
  BlobWriter w;
  w.u32(magic);
  w.u32(version);
  return w.take();
}

void append_record(std::string* file, std::string_view payload) {
  BlobWriter w;
  w.u32(kRecordMagic);
  w.u32(static_cast<uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  // The checksum covers the length too: a flipped length bit cannot
  // re-frame the file into a different, self-consistent record.
  w.u64(checksum64(w.data().data() + 4, 4 + payload.size()));
  file->append(w.data());
}

RecordScan scan_records(std::string_view file, uint32_t magic,
                        uint32_t version) {
  RecordScan scan;
  BlobReader header(file.data(), file.size());
  if (header.u32() != magic || header.u32() != version || !header.ok()) {
    return scan;
  }
  scan.header_ok = true;
  size_t pos = kHeaderBytes;
  while (file.size() - pos >= kFrameBytes) {
    BlobReader r(file.data() + pos, file.size() - pos);
    if (r.u32() != kRecordMagic) break;
    const uint32_t len = r.u32();
    if (len > file.size() - pos - kFrameBytes) break;
    r.span(len);
    const uint64_t stored = r.u64();
    if (checksum64(file.data() + pos + 4, 4 + size_t{len}) != stored) break;
    scan.records.push_back(RecordSpan{pos + 8, len});
    pos += kFrameBytes + len;
  }
  scan.end = pos;
  return scan;
}

bool decode_single_record(std::string_view file, uint32_t magic,
                          uint32_t version, std::string_view* payload) {
  const RecordScan scan = scan_records(file, magic, version);
  if (scan.records.size() != 1 || scan.end != file.size()) return false;
  *payload = file.substr(scan.records[0].offset, scan.records[0].size);
  return true;
}

bool append_record_file(const std::string& path, uint32_t magic,
                        uint32_t version, std::string_view payload,
                        uint64_t* end) {
  if (*end < kHeaderBytes) {
    if (!write_file_atomic(path, record_file_header(magic, version))) {
      return false;
    }
    *end = kHeaderBytes;
  }
  std::string frame;
  append_record(&frame, payload);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    CF_LOG_ERROR("record file: cannot open %s for appending: %s",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  // Cut any torn tail first: records appended behind garbage would be
  // invisible to every later scan.
  bool ok = ::ftruncate(fd, static_cast<off_t>(*end)) == 0;
  size_t written = 0;
  while (ok && written < frame.size()) {
    const ssize_t n =
        ::pwrite(fd, frame.data() + written, frame.size() - written,
                 static_cast<off_t>(*end + written));
    if (n <= 0) {
      ok = false;
    } else {
      written += static_cast<size_t>(n);
    }
  }
  const int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    // *end is unchanged, so the next append truncates what landed.
    CF_LOG_ERROR("record file: append to %s failed: %s", path.c_str(),
                 std::strerror(saved_errno));
    return false;
  }
  *end += frame.size();
  return true;
}

}  // namespace cuttlefish::exp

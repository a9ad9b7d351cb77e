// Seeded, deterministic mutation fuzz over every decoder that reads the
// record-file primitive's bytes: the record scan, a cache shard opened by
// ResultCache, the quarantine manifest, the worker handoff file and
// decode_result itself. Each original is mutated by every single-bit flip,
// a truncation at every offset, overwritten length fields and seeded
// random byte scrambles.
//
// The invariant: a decoder rejects, or it accepts bytes equal to the
// original — never a crash, never different bytes. decode_result carries
// no checksum of its own, so for it "accept" means the decoded result
// re-encodes to exactly the input bytes. The sanitizer CI jobs run this
// tier, which turns any out-of-bounds read or UB on hostile input into a
// failure.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>

#include "exp/record_file.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "exp/supervisor.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

/// Runs `check` on every mutation of `original`. `length_fields` are the
/// offsets of u32 length/count fields, each also overwritten with
/// boundary values.
void for_each_mutation(const std::string& original,
                       const std::vector<size_t>& length_fields,
                       uint64_t seed,
                       const std::function<void(const std::string&)>& check) {
  for (size_t bit = 0; bit < original.size() * 8; ++bit) {
    std::string m = original;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    check(m);
  }
  for (size_t cut = 0; cut < original.size(); ++cut) {
    check(original.substr(0, cut));
  }
  for (const size_t off : length_fields) {
    ASSERT_LE(off + 4, original.size());
    uint32_t was = 0;
    std::memcpy(&was, original.data() + off, 4);
    for (const uint32_t v :
         {0u, 1u, 7u, was - 1, was + 1, was * 2,
          static_cast<uint32_t>(original.size()), 0x7fffffffu,
          0xffffffffu}) {
      std::string m = original;
      std::memcpy(m.data() + off, &v, 4);
      check(m);
    }
  }
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 2000; ++round) {
    std::string m = original;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      m[rng() % m.size()] = static_cast<char>(rng());
    }
    if (rng() % 4 == 0) m.resize(rng() % (m.size() + 1));
    if (rng() % 8 == 0) m += static_cast<char>(rng());
    check(m);
  }
}

/// A result with every section populated; no co-simulation needed.
RunResult sample_result(int timeline, int nodes) {
  RunResult r;
  r.time_s = 12.5;
  r.energy_j = 3100.25;
  r.instructions = 987654321;
  for (int i = 0; i < timeline; ++i) {
    r.timeline.push_back(TimePoint{0.02 * i, 0.1 + i, 2e-9 * (i + 1),
                                   FreqMHz{1200 + 100 * i},
                                   FreqMHz{3000 - 100 * i}});
  }
  for (int i = 0; i < nodes; ++i) {
    r.nodes.push_back(NodeSummary{i - 1, static_cast<uint64_t>(10 * i),
                                  2300, 2100 + i});
  }
  r.stats.ticks = 500;
  r.stats.transitions = 7;
  r.stats.samples_recorded = 42;
  return r;
}

TEST(exp_record_fuzz, RecordScanKeepsOnlyAnIntactPrefix) {
  const std::vector<std::string> payloads{"alpha", "", std::string(40, 'x')};
  std::string file = record_file_header(0x46555A5Au, 3);
  for (const std::string& p : payloads) append_record(&file, p);
  const RecordScan clean = scan_records(file, 0x46555A5Au, 3);
  ASSERT_TRUE(clean.header_ok);
  ASSERT_EQ(clean.records.size(), payloads.size());
  ASSERT_EQ(clean.end, file.size());
  std::vector<size_t> lengths;
  for (const RecordSpan& rec : clean.records) lengths.push_back(rec.offset - 4);

  for_each_mutation(file, lengths, 1, [&](const std::string& m) {
    const RecordScan scan = scan_records(m, 0x46555A5Au, 3);
    if (!scan.header_ok) {
      EXPECT_TRUE(scan.records.empty());
      return;
    }
    ASSERT_LE(scan.records.size(), payloads.size());
    ASSERT_LE(scan.end, m.size());
    for (size_t i = 0; i < scan.records.size(); ++i) {
      ASSERT_LE(scan.records[i].offset + scan.records[i].size, m.size());
      EXPECT_EQ(m.substr(scan.records[i].offset, scan.records[i].size),
                payloads[i]);
    }
  });
}

TEST(exp_record_fuzz, ManifestRejectsOrDecodesTheOriginal) {
  SweepManifest manifest;
  manifest.grid = digest_bytes("grid", 4);
  manifest.grid_size = 640;
  manifest.quarantined = {QuarantineRow{7, 2, false, -1, 6},
                          QuarantineRow{19, 3, true, -1, 9},
                          QuarantineRow{33, 2, false, 41, 0}};
  const std::string original = encode_manifest(manifest);
  // Record length (after header + record magic) and the row count.
  const std::vector<size_t> lengths{12, 16 + 24};

  for_each_mutation(original, lengths, 2, [&](const std::string& m) {
    SweepManifest out;
    if (decode_manifest(m, &out)) {
      EXPECT_EQ(m, original);
      EXPECT_EQ(encode_manifest(out), original);
    }
  });
}

TEST(exp_record_fuzz, HandoffRejectsOrDecodesTheOriginal) {
  const RunResult result = sample_result(2, 2);
  const std::string original = encode_handoff(result);
  const std::string bytes = encode_result(result);
  // Record length, then the result's timeline and node counts.
  const std::vector<size_t> lengths{12, 16 + 32, 16 + 36 + 2 * 32};

  for_each_mutation(original, lengths, 3, [&](const std::string& m) {
    RunResult out;
    std::string_view view;
    if (decode_handoff(m, &out, &view)) {
      EXPECT_EQ(m, original);
      EXPECT_EQ(view, bytes);
      EXPECT_EQ(encode_result(out), bytes);
    }
  });
}

TEST(exp_record_fuzz, DecodeResultNeverMisreads) {
  const std::string original = encode_result(sample_result(3, 2));
  // Timeline count, node count.
  const std::vector<size_t> lengths{32, 36 + 3 * 32};

  for_each_mutation(original, lengths, 4, [&](const std::string& m) {
    RunResult out;
    if (decode_result(m.data(), m.size(), &out)) {
      EXPECT_EQ(encode_result(out), m);
    }
  });
}

TEST(exp_record_fuzz, CacheShardServesOnlyOriginalEntries) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  RunSpec spec;
  spec.machine = &machine;
  spec.model = &workloads::find_benchmark("SOR-irt");
  spec.kind = RunKind::kPolicy;

  // Build a two-entry shard through the public insert path.
  const fs::path root = fs::temp_directory_path() /
                        ("cuttlefish_record_fuzz_" +
                         std::to_string(::getpid()));
  fs::remove_all(root);
  std::vector<ResultCache::Insert> inserts;
  for (int i = 0; i < 2; ++i) {
    spec.seed = 40 + static_cast<uint64_t>(i);
    inserts.push_back(ResultCache::Insert{
        digest_spec(spec), encode_spec(spec),
        encode_result(sample_result(i, 1 + i))});
  }
  std::string original;
  {
    ResultCache cache((root / "build").string());
    cache.insert_batch(inserts);
    ASSERT_EQ(cache.size(), 2u);
    for (const auto& e : fs::directory_iterator(root / "build")) {
      if (e.path().filename().string().rfind("shard-", 0) == 0) {
        ASSERT_TRUE(read_file(e.path().string(), &original));
      }
    }
  }
  ASSERT_FALSE(original.empty());
  const RecordScan clean = scan_records(original, 0x43465348u, 2);
  ASSERT_EQ(clean.records.size(), 2u);
  std::vector<size_t> lengths;
  for (const RecordSpan& rec : clean.records) {
    lengths.push_back(rec.offset - 4);  // frame length
    lengths.push_back(rec.offset + 16);  // entry spec length
  }

  const fs::path dir = root / "fuzz";
  fs::create_directories(dir);
  const std::string shard = (dir / "shard-fuzz.bin").string();
  size_t accepted = 0;
  for_each_mutation(original, lengths, 5, [&](const std::string& m) {
    {
      std::ofstream out(shard, std::ios::binary | std::ios::trunc);
      out.write(m.data(), static_cast<std::streamsize>(m.size()));
    }
    ResultCache cache(dir.string());
    ASSERT_LE(cache.size(), inserts.size());
    for (size_t i = 0; i < cache.size(); ++i) {
      ResultCache::EntryView view;
      if (!cache.entry(i, &view)) continue;
      const auto it =
          std::find_if(inserts.begin(), inserts.end(),
                       [&](const ResultCache::Insert& ins) {
                         return ins.digest == view.digest;
                       });
      ASSERT_NE(it, inserts.end()) << "entry under a digest never stored";
      EXPECT_EQ(view.spec_blob, it->spec_blob);
      EXPECT_EQ(encode_result(view.result), it->result_bytes);
      ++accepted;
    }
  });
  // The unmutated prefixes (truncations past whole records) do serve.
  EXPECT_GT(accepted, 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace cuttlefish::exp

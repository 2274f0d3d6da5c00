// Tests for the columnar snapshot format: pack/load round trips (bytes,
// files, mmap vs streamed), index adoption, and rejection of truncated
// or corrupted inputs.  Bit-compatibility of the *analyses* run on a
// loaded snapshot is the differential oracle's job
// (testkit::run_oracle's snapshot_roundtrip check); this file owns the
// format itself, plus one end-to-end check of the file path `tsufail
// pack` takes: the study report and the unpacked CSV must match the
// source CSV byte for byte.
#include "data/columnar.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/study.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "data/snapshot.h"
#include "report/study_text.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "testkit/generator.h"

namespace tsufail::data {
namespace {

/// Field-by-field record equality, TTR compared bitwise.
void expect_same_records(const FailureLog& a, const FailureLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    EXPECT_EQ(x.time, y.time) << "record " << i;
    EXPECT_EQ(x.node, y.node) << "record " << i;
    EXPECT_EQ(x.category, y.category) << "record " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.ttr_hours), std::bit_cast<std::uint64_t>(y.ttr_hours))
        << "record " << i;
    EXPECT_EQ(x.gpu_slots, y.gpu_slots) << "record " << i;
    EXPECT_EQ(x.root_locus, y.root_locus) << "record " << i;
  }
}

TEST(ColumnarPack, RoundTripsGeneratedLogs) {
  for (const auto& model : {sim::tsubame2_model(), sim::tsubame3_model()}) {
    auto log = sim::generate_log(model, 7).value();
    const LogIndex index(log);
    const std::string bytes = pack_columnar(log, &index);
    auto snap = ColumnarSnapshot::from_bytes(bytes);
    ASSERT_TRUE(snap.ok()) << snap.error().to_string();
    EXPECT_TRUE(snap.value()->has_index());
    EXPECT_EQ(snap.value()->size(), log.size());
    EXPECT_EQ(snap.value()->spec().machine, log.spec().machine);
    EXPECT_EQ(snap.value()->spec().node_count, log.spec().node_count);
    EXPECT_EQ(snap.value()->spec().name, log.spec().name);
    expect_same_records(log, snap.value()->to_log());
  }
}

TEST(ColumnarPack, RoundTripsEmptyLog) {
  auto log = FailureLog::create(tsubame3_spec(), {}).value();
  const LogIndex index(log);
  auto snap = ColumnarSnapshot::from_bytes(pack_columnar(log, &index));
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  EXPECT_EQ(snap.value()->size(), 0u);
  EXPECT_TRUE(snap.value()->has_index());
  EXPECT_TRUE(snap.value()->to_log().empty());
}

TEST(ColumnarPack, RecordsOnlySnapshotHasNoIndex) {
  auto log = sim::generate_log(sim::tsubame2_model(), 11).value();
  auto snap = ColumnarSnapshot::from_bytes(pack_columnar(log, nullptr));
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  EXPECT_FALSE(snap.value()->has_index());
  expect_same_records(log, snap.value()->to_log());
  // from_columnar on an index-less snapshot builds the index fresh.
  auto mounted = LogSnapshot::from_columnar(snap.value(), 3);
  ASSERT_TRUE(mounted.ok()) << mounted.error().to_string();
  EXPECT_EQ(mounted.value()->epoch(), 3u);
  EXPECT_EQ(mounted.value()->size(), log.size());
}

TEST(ColumnarPack, EdgeCaseCorpusRoundTripsByteIdentically) {
  for (Machine machine : {Machine::kTsubame2, Machine::kTsubame3}) {
    for (const auto& edge : testkit::edge_case_logs(machine)) {
      const LogIndex index(edge.log);
      auto snap = ColumnarSnapshot::from_bytes(pack_columnar(edge.log, &index));
      ASSERT_TRUE(snap.ok()) << edge.name << ": " << snap.error().to_string();
      // The canonical CSV rendering of the materialized log must be
      // byte-identical to the original's.
      EXPECT_EQ(write_log_csv(edge.log), write_log_csv(snap.value()->to_log())) << edge.name;
      auto mounted = LogSnapshot::from_columnar(snap.value());
      ASSERT_TRUE(mounted.ok()) << edge.name << ": " << mounted.error().to_string();
      EXPECT_EQ(mounted.value()->size(), edge.log.size()) << edge.name;
    }
  }
}

TEST(ColumnarPack, FromSortedPreservesTieOrder) {
  // Two records at the same instant: from_sorted must keep the given
  // order (the pack/load path relies on this for byte-identity).
  auto log = sim::generate_log(sim::tsubame3_model(), 13).value();
  std::vector<FailureRecord> records(log.records().begin(), log.records().end());
  FailureLog adopted = FailureLog::from_sorted(log.spec(), records);
  expect_same_records(log, adopted);
}

TEST(ColumnarFile, MapAndStreamLoadsAgree) {
  // The `tsufail pack` path for both presets: CSV file -> parsed log ->
  // .tsnap file.  Whichever way the snapshot is loaded, it must render
  // the same study report as the CSV and unpack to the same CSV bytes.
  for (const auto& model : {sim::tsubame2_model(), sim::tsubame3_model()}) {
    const std::string csv = write_log_csv(sim::generate_log(model, 5).value());
    const std::string stem = std::string(::testing::TempDir()) + "columnar_map_stream_" +
                             std::to_string(static_cast<int>(model.spec.machine));
    const std::string csv_path = stem + ".csv";
    const std::string snap_path = stem + ".tsnap";
    {
      std::ofstream out(csv_path, std::ios::binary);
      out << csv;
    }
    auto parsed = read_log_file(csv_path, ReadPolicy::kStrict);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    const FailureLog& log = parsed.value().log;
    const LogIndex index(log);
    ASSERT_TRUE(write_columnar_file(snap_path, pack_columnar(log, &index)).ok());

    auto mapped = ColumnarSnapshot::open(snap_path, SnapshotLoadMode::kMap);
    auto streamed = ColumnarSnapshot::open(snap_path, SnapshotLoadMode::kStream);
    std::remove(csv_path.c_str());
    std::remove(snap_path.c_str());
#if defined(__unix__) || defined(__APPLE__)
    ASSERT_TRUE(mapped.ok()) << mapped.error().to_string();
    EXPECT_TRUE(mapped.value()->mapped());
#else
    ASSERT_TRUE(mapped.ok()) << mapped.error().to_string();  // falls back to streaming
#endif
    ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
    EXPECT_FALSE(streamed.value()->mapped());
    const FailureLog loaded = mapped.value()->to_log();
    expect_same_records(loaded, streamed.value()->to_log());

    EXPECT_EQ(report::render_study_text(loaded, analysis::run_study(loaded, {}).value()),
              report::render_study_text(log, analysis::run_study(log, {}).value()))
        << log.spec().name;
    EXPECT_EQ(write_log_csv(loaded), csv) << log.spec().name;
  }
}

TEST(ColumnarFile, SniffDetectsSnapshots) {
  auto log = FailureLog::create(tsubame2_spec(), {}).value();
  const std::string bytes = pack_columnar(log, nullptr);
  EXPECT_TRUE(ColumnarSnapshot::sniff(bytes));
  EXPECT_FALSE(ColumnarSnapshot::sniff("machine,timestamp,node\n"));
  EXPECT_FALSE(ColumnarSnapshot::sniff(""));
}

TEST(ColumnarReject, TruncatedBytes) {
  auto log = sim::generate_log(sim::tsubame2_model(), 3).value();
  const LogIndex index(log);
  const std::string bytes = pack_columnar(log, &index);
  // Every strictly shorter prefix must be rejected, never crash.
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{47}, bytes.size() / 2,
                           bytes.size() - 1}) {
    auto snap = ColumnarSnapshot::from_bytes(std::string_view(bytes).substr(0, keep));
    EXPECT_FALSE(snap.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

TEST(ColumnarReject, CorruptedPayloadFailsChecksum) {
  auto log = sim::generate_log(sim::tsubame3_model(), 9).value();
  const LogIndex index(log);
  std::string bytes = pack_columnar(log, &index);
  // Flip one bit in the back half (payload, past header + table).
  bytes[bytes.size() - 9] ^= 0x40;
  auto snap = ColumnarSnapshot::from_bytes(bytes);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.error().to_string().find("checksum"), std::string::npos)
      << snap.error().to_string();
}

TEST(ColumnarReject, WrongMagicAndVersion) {
  auto log = FailureLog::create(tsubame2_spec(), {}).value();
  std::string bytes = pack_columnar(log, nullptr);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ColumnarSnapshot::from_bytes(bad_magic).ok());
  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(0x7F);  // version field follows the magic
  EXPECT_FALSE(ColumnarSnapshot::from_bytes(bad_version).ok());
}

TEST(ColumnarReject, MissingFileIsIoError) {
  auto snap = ColumnarSnapshot::open("/nonexistent/columnar.tsnap");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.error().kind(), ErrorKind::kIo);
}

}  // namespace
}  // namespace tsufail::data

/// \file test_snapshot_compat.cpp
/// Snapshot read-compat. Format v3 dropped the AdmissionOptions fields
/// that no caller set (the legacy analyzer knobs, max_tasks,
/// rollback_refinements). The v2 images in tests/data/ were written by
/// the format-v2 library from the compat traces of pin_traces.hpp. Each
/// must load into this build with the residents, stats and store of a
/// replay of the same trace prefix, and then decide the rest of the
/// trace exactly as that replay does. An image whose dropped field
/// holds anything but its old default is refused with a typed
/// PersistError: v2's dropped fields, eager_compaction, whose two bytes
/// v3 images keep as 0, and exact_fallback, utilization_cap and
/// use_slack_index, which v3 images keep at Qpa, 1.0 and 1. So is the
/// v2 image of the sharded engine earlier versions shipped: only
/// controller images load.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "admission/snapshot.hpp"
#include "helpers.hpp"
#include "persist/format.hpp"
#include "pin_traces.hpp"

namespace edfkit {
namespace {

using testing::CompatTrace;
using testing::compat_traces;
using testing::pin_events;

std::string data_path(const std::string& file) {
  return std::string(EDFKIT_TEST_DATA_DIR) + "/" + file;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "edfkit_compat_" + name + "_" +
         std::to_string(::getpid());
}

void expect_same_rows(const TaskSet& a, const TaskSet& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << what << " row " << i;
  }
}

void expect_same_options(const AdmissionOptions& a, const AdmissionOptions& b,
                         const char* what) {
  EXPECT_EQ(a.epsilon, b.epsilon) << what;
  EXPECT_EQ(a.skip_exact, b.skip_exact) << what;
  EXPECT_EQ(a.return_certificate, b.return_certificate) << what;
  EXPECT_EQ(a.platform.m, b.platform.m) << what;
}

TEST(SnapshotCompat, V2ControllerImagesLoadAndDecideLikeAReplay) {
  for (const CompatTrace& c : compat_traces()) {
    const std::vector<TraceEvent> events = pin_events(c.trace);
    AdmissionController loaded;
    (void)load_snapshot(loaded, data_path(c.file));
    AdmissionController replayed(c.trace.options);
    testing::PinDriver rd{replayed, {}, {}};
    for (std::size_t i = 0; i < c.split; ++i) rd.step(events[i]);

    expect_same_options(loaded.options(), replayed.options(), c.file);
    EXPECT_EQ(loaded.stats().to_json(), replayed.stats().to_json()) << c.file;
    expect_same_rows(loaded.snapshot(), replayed.snapshot(), c.file);
    EXPECT_EQ(store_digest(loaded), store_digest(replayed)) << c.file;
    EXPECT_TRUE(loaded.verify_consistency()) << c.file;

    // The rest of the trace: the loaded store decides like the replay.
    testing::PinDriver ld{loaded, {}, rd.live};
    rd.digest = {};
    for (std::size_t i = c.split; i < events.size(); ++i) {
      ld.step(events[i]);
      rd.step(events[i]);
    }
    EXPECT_EQ(ld.digest.h, rd.digest.h) << c.file;
    EXPECT_EQ(loaded.stats().to_json(), replayed.stats().to_json()) << c.file;
    EXPECT_EQ(store_digest(loaded), store_digest(replayed)) << c.file;
  }
}

persist::PersistErrc load_error(const std::string& path) {
  AdmissionController out;
  try {
    (void)load_snapshot(out, path);
  } catch (const persist::PersistError& e) {
    return e.code();
  }
  ADD_FAILURE() << path << " loaded";
  return persist::PersistErrc::IoError;
}

std::vector<std::uint8_t> patch_controller(std::vector<std::uint8_t> bytes,
                                           std::size_t offset,
                                           std::uint64_t value,
                                           std::size_t width) {
  return testing::patch_section(std::move(bytes), testing::kControllerSection,
                                offset, value, width);
}

TEST(SnapshotCompat, V2EngineImageIsRefused) {
  // Written by the sharded engine (three WorstFit shards): its kind tag
  // is refused before any section is decoded.
  EXPECT_EQ(load_error(data_path("snapshot_v2_engine.bin")),
            persist::PersistErrc::BadValue);
  try {
    (void)read_snapshot_meta(
        persist::read_file(data_path("snapshot_v2_engine.bin")));
    ADD_FAILURE() << "engine image meta read as a controller's";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("engine snapshot"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCompat, V2ImageWithADroppedOptionSetIsRefused) {
  // Written with max_tasks = 16:
  EXPECT_EQ(load_error(data_path("snapshot_v2_max_tasks.bin")),
            persist::PersistErrc::BadValue);
  // Written with eager_compaction = true:
  EXPECT_EQ(load_error(data_path("snapshot_v2_controller.bin")),
            persist::PersistErrc::BadValue);

  // The v2 controller payload: epsilon f64 @0, exact_fallback u32 @8,
  // then the legacy analyzer knobs from @12 (superpos_level i64 first)
  // and, after utilization_cap and max_tasks, the option flags from @96
  // (rollback_refinements @99).
  const std::vector<std::uint8_t> v2 =
      persist::read_file(data_path("snapshot_v2_global.bin"));
  const std::string path = temp_path("patched");
  persist::write_file_atomic(path, patch_controller(v2, 12, 5, 8));
  EXPECT_EQ(load_error(path), persist::PersistErrc::BadValue);
  persist::write_file_atomic(path, patch_controller(v2, 99, 1, 1));
  EXPECT_EQ(load_error(path), persist::PersistErrc::BadValue);
  // The unpatched image (all dropped fields at their defaults) loads.
  persist::write_file_atomic(path, patch_controller(v2, 99, 0, 1));
  AdmissionController ok;
  EXPECT_NO_THROW((void)load_snapshot(ok, path));

  // Versions outside [2, current] stay typed BadVersion errors.
  for (const std::uint32_t version : {1u, 4u}) {
    std::vector<std::uint8_t> bytes = v2;
    std::memcpy(bytes.data() + 8, &version, 4);
    persist::write_file_atomic(path, bytes);
    EXPECT_EQ(load_error(path), persist::PersistErrc::BadVersion) << version;
  }
  std::remove(path.c_str());
}

TEST(SnapshotCompat, V3ImageWithEagerCompactionSetIsRefused) {
  AdmissionController ctl;
  (void)ctl.try_admit(testing::tk(1, 4, 8));
  const std::vector<std::uint8_t> v3 = encode_snapshot(ctl, 0);
  // The v3 controller payload: epsilon, exact_fallback and
  // utilization_cap, then the option flags from @20 (eager_compaction
  // @22); 11 u64 stats from @28; the demand section from @116: k, then
  // its flags (eager_compaction @125).
  for (const std::size_t offset : {std::size_t{22}, std::size_t{125}}) {
    AdmissionController out;
    try {
      (void)load_snapshot_bytes(out, patch_controller(v3, offset, 1, 1));
      ADD_FAILURE() << "offset " << offset << " loaded";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::BadValue) << offset;
      EXPECT_NE(std::string(e.what()).find("eager_compaction"),
                std::string::npos)
          << offset << ": " << e.what();
    }
  }
  // Written as 0, the bytes load.
  AdmissionController ok;
  EXPECT_NO_THROW((void)load_snapshot_bytes(ok, v3));
  EXPECT_EQ(store_digest(ok), store_digest(ctl));
}

TEST(SnapshotCompat, V3ImageWithADroppedOptionSetIsRefused) {
  // v3 keeps the bytes of three more dropped options, written as their
  // old defaults: exact_fallback (Qpa) u32 @8, utilization_cap (1.0)
  // f64 @12, and use_slack_index (1) in the options @21 and in the
  // demand section @124 (layout as in the eager_compaction test).
  AdmissionController ctl;
  (void)ctl.try_admit(testing::tk(1, 4, 8));
  (void)ctl.try_admit(testing::tk(2, 6, 12));
  const std::vector<std::uint8_t> v3 = encode_snapshot(ctl, 0);
  const auto expect_refused = [](const std::vector<std::uint8_t>& image,
                                 const char* option,
                                 const std::string& what) {
    AdmissionController out;
    try {
      (void)load_snapshot_bytes(out, image);
      ADD_FAILURE() << what << " loaded";
    } catch (const persist::PersistError& e) {
      EXPECT_EQ(e.code(), persist::PersistErrc::BadValue) << what;
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const TestKind kind : all_test_kinds()) {
    if (kind == TestKind::Qpa) continue;
    expect_refused(patch_controller(v3, 8, static_cast<std::uint64_t>(kind),
                                    4),
                   "exact_fallback", to_string(kind));
  }
  const double cap = 0.9;
  std::uint64_t cap_bits = 0;
  std::memcpy(&cap_bits, &cap, sizeof cap);
  expect_refused(patch_controller(v3, 12, cap_bits, 8), "utilization_cap",
                 "utilization_cap 0.9");
  for (const std::size_t offset : {std::size_t{21}, std::size_t{124}}) {
    expect_refused(patch_controller(v3, offset, 0, 1), "use_slack_index",
                   "use_slack_index @" + std::to_string(offset));
  }
  // The unpatched image loads into the same store.
  AdmissionController ok;
  EXPECT_NO_THROW((void)load_snapshot_bytes(ok, v3));
  EXPECT_EQ(store_digest(ok), store_digest(ctl));
}

}  // namespace
}  // namespace edfkit

#include "admission/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "persist/format.hpp"

namespace edfkit {
namespace {

using persist::PersistErrc;
using persist::PersistError;

constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecController = 2;

/// The smallest encodings, for checking counts read from an image
/// before anything is sized by them (ByteReader::checked_count).
constexpr std::size_t kMinTaskBytes = 4 * 8 + 4;  ///< four i64 + str
constexpr std::size_t kPairBytes = 2 * 16;        ///< encode_pair

void encode_task(ByteWriter& w, const Task& t) {
  w.i64(t.wcet);
  w.i64(t.deadline);
  w.i64(t.period);
  w.i64(t.jitter);
  w.str(t.name);
}

Task decode_task(ByteReader& r) {
  Task t;
  t.wcet = r.i64();
  t.deadline = r.i64();
  t.period = r.i64();
  t.jitter = r.i64();
  t.name = r.str();
  return t;
}

void encode_pair(ByteWriter& w, const ScaledPair& p) {
  w.i128(p.lo);
  w.i128(p.hi);
}

ScaledPair decode_pair(ByteReader& r) {
  ScaledPair p;
  p.lo = r.i128();
  p.hi = r.i128();
  return p;
}

std::optional<Time> decode_optional_time(ByteReader& r) {
  const bool has = r.boolean();
  const Time v = r.i64();
  return has ? std::optional<Time>(v) : std::nullopt;
}

void encode_meta(persist::SectionWriter& sw, SnapshotKind kind,
                 std::uint64_t lsn) {
  ByteWriter& w = sw.begin(kSecMeta);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(lsn);
}

/// Options the library dropped can keep their bytes in the format: v2
/// carries the AdmissionOptions fields v3 dropped, and v3 still holds
/// eager_compaction (written as 0), exact_fallback (Qpa),
/// utilization_cap (1.0) and use_slack_index (1, in both the options
/// and the demand section). An image loads only
/// while each holds its old default — the value this library behaves
/// as — and is refused otherwise rather than decided differently from
/// the run that wrote it.
void expect_dropped_default(bool is_default, const char* field) {
  if (!is_default) {
    throw PersistError(PersistErrc::BadValue,
                       std::string("snapshot sets dropped option ") + field);
  }
}

/// The v2 legacy analyzer knobs, in their serialized order. Their
/// defaults equal the default_params the exact rung runs.
void decode_v2_analyzer(ByteReader& r) {
  const DynamicTestOptions dyn;
  const AllApproxOptions aa;
  const ProcessorDemandOptions pd;
  expect_dropped_default(r.i64() == SuperPosParams{}.level,
                         "superpos_level");
  expect_dropped_default(r.f64() == ChakrabortyParams{}.epsilon,
                         "analyzer epsilon");
  expect_dropped_default(r.i64() == dyn.initial_level,
                         "dynamic.initial_level");
  expect_dropped_default(r.i64() == dyn.growth_factor,
                         "dynamic.growth_factor");
  expect_dropped_default(r.i64() == dyn.max_level, "dynamic.max_level");
  expect_dropped_default(decode_optional_time(r) == dyn.bound,
                         "dynamic.bound");
  expect_dropped_default(decode_optional_time(r) == aa.bound,
                         "all_approx.bound");
  expect_dropped_default(r.u8() == static_cast<std::uint8_t>(aa.revision),
                         "all_approx.revision");
  expect_dropped_default(r.boolean() == pd.use_busy_period,
                         "pd_use_busy_period");
  expect_dropped_default(r.u64() == pd.max_iterations, "pd_max_iterations");
}

SnapshotMeta decode_meta(const persist::SectionReader& sr) {
  ByteReader r = sr.section(kSecMeta);
  const std::uint8_t kind = r.u8();
  if (kind == static_cast<std::uint8_t>(SnapshotKind::Engine)) {
    throw PersistError(PersistErrc::BadValue,
                       "engine snapshot loaded as controller");
  }
  if (kind != static_cast<std::uint8_t>(SnapshotKind::Controller)) {
    throw PersistError(PersistErrc::BadValue, "unknown snapshot kind");
  }
  SnapshotMeta meta;
  meta.journal_lsn = r.u64();
  return meta;
}

/// One decoded journal record (union-style: only the op's fields are
/// meaningful).
struct Record {
  JournalOp op;
  Task task;
  std::vector<Task> group;
  TaskId id = kInvalidTaskId;
  std::vector<TaskId> ids;
  // ClientMark
  std::string client;
  std::uint64_t request_id = 0;
  std::uint8_t mark_flags = 0;
};

Record decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  Record rec;
  const std::uint8_t tag = r.u8();
  rec.op = static_cast<JournalOp>(tag);
  switch (rec.op) {
    case JournalOp::Admit:
      rec.task = decode_task(r);
      break;
    case JournalOp::AdmitGroup: {
      const std::size_t n = r.checked_count(r.u32(), kMinTaskBytes);
      rec.group.reserve(n);
      for (std::size_t i = 0; i < n; ++i) rec.group.push_back(decode_task(r));
      break;
    }
    case JournalOp::Remove:
      rec.id = r.u64();
      break;
    case JournalOp::RemoveGroup: {
      const std::size_t n = r.checked_count(r.u32(), 8);
      rec.ids.reserve(n);
      for (std::size_t i = 0; i < n; ++i) rec.ids.push_back(r.u64());
      break;
    }
    case JournalOp::ClientMark:
      rec.client = r.str();
      rec.request_id = r.u64();
      rec.mark_flags = r.u8();
      break;
    default:
      throw PersistError(PersistErrc::BadValue,
                         "unknown journal record tag " +
                             std::to_string(tag));
  }
  if (!r.exhausted()) {
    throw PersistError(PersistErrc::BadValue,
                       "journal record has trailing bytes");
  }
  return rec;
}

}  // namespace

namespace journal_codec {

std::vector<std::uint8_t> admit(const Task& t) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalOp::Admit));
  encode_task(w, t);
  return std::move(w).take();
}

std::vector<std::uint8_t> admit_group(std::span<const Task> group) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalOp::AdmitGroup));
  w.u32(static_cast<std::uint32_t>(group.size()));
  for (const Task& t : group) encode_task(w, t);
  return std::move(w).take();
}

std::vector<std::uint8_t> remove(TaskId id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalOp::Remove));
  w.u64(id);
  return std::move(w).take();
}

std::vector<std::uint8_t> remove_group(std::span<const TaskId> ids) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalOp::RemoveGroup));
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const TaskId id : ids) w.u64(id);
  return std::move(w).take();
}

std::vector<std::uint8_t> client_mark(const std::string& client,
                                      std::uint64_t request_id,
                                      std::uint8_t flags) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalOp::ClientMark));
  w.str(client);
  w.u64(request_id);
  w.u8(flags);
  return std::move(w).take();
}

}  // namespace journal_codec

/// Field-for-field (de)serialization of the admission state. Every
/// member the decision paths read is written out and restored verbatim
/// — this is what makes a loaded store bit-identical to the live one.
/// Transient scratch (corner buffer, the lazily materialized exact
/// rational) is reset instead, and the header epoch steps on rather
/// than being restored (it counts mutating calls of *this process*;
/// readers compare header fields, not epochs, across restarts).
struct SnapshotCodec {
  static void encode_demand(const IncrementalDemand& d, ByteWriter& w) {
    w.i64(d.k_);
    w.boolean(true);   // use_slack_index (dropped)
    w.boolean(false);  // eager_compaction (dropped)
    w.boolean(d.index_engaged_);
    w.u64(d.engage_at_);
    w.u64(d.disengage_below_);
    w.u64(d.next_id_);

    const std::span<const Task> rows = d.view_.tasks();
    w.u64(rows.size());
    for (const Task& t : rows) encode_task(w, t);
    for (std::size_t row = 0; row < rows.size(); ++row) {
      w.i64(d.levels_[row]);
    }
    for (std::size_t row = 0; row < rows.size(); ++row) {
      w.i64(d.borders_of_row_[row]);
    }

    // id -> slot index, tombstones included (slots are translated to
    // dense rows: the loaded view re-assigns slot i to row i).
    w.u64(d.id_index_.size());
    for (const auto& [id, slot] : d.id_index_) {
      w.u64(id);
      w.u32(slot == TaskView::kInvalidSlot
                ? TaskView::kInvalidSlot
                : static_cast<std::uint32_t>(d.view_.row_of(slot)));
    }
    w.u64(d.dead_ids_);

    w.u64(d.segs_.size());
    for (const IncrementalDemand::Segment& g : d.segs_) {
      w.i64(g.lo);
      w.i64(g.hi);
      w.i64(g.step_sum);
      encode_pair(w, g.slope_sum);
      encode_pair(w, g.offset_sum);
      w.f64(g.min_ratio);
      w.u64(g.dead);
      w.u64(g.dead_borders);
      w.u64(g.steps.size());
      for (const IncrementalDemand::StepEntry& e : g.steps) {
        w.i64(e.at);
        w.i64(e.step);
        w.i64(e.refs);
      }
      w.u64(g.borders.size());
      for (const IncrementalDemand::BorderEntry& e : g.borders) {
        w.i64(e.at);
        w.i64(e.refs);
        encode_pair(w, e.slope);
        encode_pair(w, e.offset);
      }
    }
    w.u64(d.total_steps_);
    w.u64(d.dead_steps_);
    w.u64(d.seg_built_steps_);

    encode_pair(w, d.util_scaled_);
    encode_pair(w, d.kay_);
    w.i64(d.d_max_);
    w.boolean(d.d_max_stale_);
    for (const Time x : d.cert_x_) w.i64(x);
    for (const Int128 c : d.cert_region_) w.i128(c);
    w.i128(d.cert_lo_);
    w.boolean(d.cert_dead_);
    w.u64(d.constrained_);
  }

  static void decode_demand(IncrementalDemand& d, ByteReader& r) {
    d.k_ = r.i64();
    if (d.k_ < 1) {
      throw PersistError(PersistErrc::BadValue, "k < 1");
    }
    expect_dropped_default(r.boolean(), "use_slack_index");
    expect_dropped_default(!r.boolean(), "eager_compaction");
    d.index_engaged_ = r.boolean();
    d.engage_at_ = r.u64();
    d.disengage_below_ = r.u64();
    d.next_id_ = r.u64();

    // Each row: its task, level and border.
    const std::size_t n = r.checked_count(r.u64(), kMinTaskBytes + 16);
    d.view_ = TaskView{};
    d.view_.reserve(n);
    for (std::uint64_t row = 0; row < n; ++row) {
      // Fresh views assign slot i to row i, so the serialized rows of
      // the id index stay valid as slots.
      const TaskView::Slot slot = d.view_.add(decode_task(r));
      if (slot != row) {
        throw PersistError(PersistErrc::BadValue, "non-dense view slots");
      }
    }
    d.levels_.assign(n, 0);
    for (std::uint64_t row = 0; row < n; ++row) d.levels_[row] = r.i64();
    d.borders_of_row_.assign(n, 0);
    for (std::uint64_t row = 0; row < n; ++row) {
      d.borders_of_row_[row] = r.i64();
    }

    const std::size_t index_n = r.checked_count(r.u64(), 8 + 4);
    d.id_index_.clear();
    d.id_index_.reserve(index_n);
    std::vector<std::uint8_t> row_seen(n, 0);
    TaskId prev_id = 0;
    for (std::uint64_t i = 0; i < index_n; ++i) {
      const TaskId id = r.u64();
      const std::uint32_t row = r.u32();
      if (id <= prev_id || id >= d.next_id_) {
        throw PersistError(PersistErrc::BadValue, "id index not sorted");
      }
      prev_id = id;
      if (row != TaskView::kInvalidSlot) {
        if (row >= n || row_seen[row] != 0) {
          throw PersistError(PersistErrc::BadValue, "id index row");
        }
        row_seen[row] = 1;
      }
      d.id_index_.emplace_back(id, row);
    }
    if (std::count(row_seen.begin(), row_seen.end(), 1) !=
        static_cast<std::ptrdiff_t>(n)) {
      throw PersistError(PersistErrc::BadValue, "unreferenced rows");
    }
    d.dead_ids_ = r.u64();

    // Each segment: three i64, two pairs, the ratio and four counts.
    const std::size_t seg_n =
        r.checked_count(r.u64(), 3 * 8 + 2 * kPairBytes + 5 * 8);
    if (seg_n == 0) {
      throw PersistError(PersistErrc::BadValue, "no segments");
    }
    d.segs_.assign(seg_n, IncrementalDemand::Segment{});
    for (IncrementalDemand::Segment& g : d.segs_) {
      g.lo = r.i64();
      g.hi = r.i64();
      g.step_sum = r.i64();
      g.slope_sum = decode_pair(r);
      g.offset_sum = decode_pair(r);
      g.min_ratio = r.f64();
      g.dead = r.u64();
      g.dead_borders = r.u64();
      g.steps.resize(r.checked_count(r.u64(), 3 * 8));
      for (IncrementalDemand::StepEntry& e : g.steps) {
        e.at = r.i64();
        e.step = r.i64();
        e.refs = r.i64();
      }
      g.borders.resize(r.checked_count(r.u64(), 2 * 8 + 2 * kPairBytes));
      for (IncrementalDemand::BorderEntry& e : g.borders) {
        e.at = r.i64();
        e.refs = r.i64();
        e.slope = decode_pair(r);
        e.offset = decode_pair(r);
      }
    }
    d.total_steps_ = r.u64();
    d.dead_steps_ = r.u64();
    d.seg_built_steps_ = r.u64();

    d.util_scaled_ = decode_pair(r);
    d.kay_ = decode_pair(r);
    d.d_max_ = r.i64();
    d.d_max_stale_ = r.boolean();
    for (Time& x : d.cert_x_) x = r.i64();
    for (Int128& c : d.cert_region_) c = r.i128();
    d.cert_lo_ = r.i128();
    d.cert_dead_ = r.boolean();
    d.constrained_ = r.u64();

    // Transient state restarts clean; the exact rational rematerializes
    // lazily from the (restored) resident rows, and the GFB density
    // aggregate (not serialized) is re-derived from them in one pass.
    d.corner_scratch_.clear();
    d.util_ = Rational{};
    d.util_valid_ = false;
    d.rederive_density();
    d.bump_epoch();
  }

  static void encode_controller(const AdmissionController& c,
                                ByteWriter& w) {
    const AdmissionOptions& o = c.opts_;
    w.f64(o.epsilon);
    w.u32(static_cast<std::uint32_t>(TestKind::Qpa));  // exact_fallback
    w.f64(1.0);                                        // utilization_cap
    w.boolean(o.skip_exact);
    w.boolean(true);   // use_slack_index (dropped)
    w.boolean(false);  // eager_compaction (dropped)
    w.boolean(o.return_certificate);
    w.u32(o.platform.m);

    const AdmissionStats& s = c.stats_;
    w.u64(s.arrivals);
    w.u64(s.admitted);
    w.u64(s.rejected);
    w.u64(s.removals);
    w.u64(s.groups);
    for (const std::uint64_t v : s.by_rung) w.u64(v);
    w.u64(s.total_effort);
    w.u64(c.sequence_);

    encode_demand(c.demand_, w);
  }

  /// `version` is the container's format version (v2 carries more
  /// dropped option fields; all must hold their old defaults).
  static void decode_controller(AdmissionController& c, ByteReader& r,
                                std::uint32_t version) {
    const bool v2 = version == 2;
    AdmissionOptions o;
    o.epsilon = r.f64();
    expect_dropped_default(
        r.u32() == static_cast<std::uint32_t>(TestKind::Qpa),
        "exact_fallback");
    if (v2) decode_v2_analyzer(r);
    expect_dropped_default(r.f64() == 1.0, "utilization_cap");
    if (v2) expect_dropped_default(r.u64() == 0, "max_tasks");
    o.skip_exact = r.boolean();
    expect_dropped_default(r.boolean(), "use_slack_index");
    expect_dropped_default(!r.boolean(), "eager_compaction");
    if (v2) expect_dropped_default(!r.boolean(), "rollback_refinements");
    o.return_certificate = r.boolean();
    o.platform.m = r.u32();
    if (!platform_valid(o.platform)) {
      throw PersistError(PersistErrc::BadValue, "platform processor count");
    }
    c.opts_ = o;

    AdmissionStats s;
    s.arrivals = r.u64();
    s.admitted = r.u64();
    s.rejected = r.u64();
    s.removals = r.u64();
    s.groups = r.u64();
    for (std::uint64_t& v : s.by_rung) v = r.u64();
    s.total_effort = r.u64();
    c.stats_ = s;
    c.sequence_ = r.u64();

    decode_demand(c.demand_, r);
  }

  /// Return the store to its freshly-constructed state (configuration
  /// — epsilon, the index flag, thresholds — kept). Cold
  /// journal replay starts from here: replaying records into a
  /// controller that still holds state would double-apply every one.
  static void reset_demand(IncrementalDemand& d) {
    d.next_id_ = 1;
    d.view_ = TaskView{};
    d.levels_.clear();
    d.borders_of_row_.clear();
    d.id_index_.clear();
    d.dead_ids_ = 0;
    d.segs_.assign(1, IncrementalDemand::Segment{});
    d.total_steps_ = 0;
    d.dead_steps_ = 0;
    d.seg_built_steps_ = 0;
    d.index_engaged_ = false;
    d.corner_scratch_.clear();
    d.util_ = Rational{};
    d.util_valid_ = true;
    d.util_scaled_ = ScaledPair{};
    d.kay_ = ScaledPair{};
    d.d_max_ = 0;
    d.d_max_stale_ = false;
    d.rederive_density();  // empty view: all zero
    d.cert_x_.fill(0);
    d.cert_region_.fill(kFixedPointScale);  // empty set: fully slack
    d.cert_lo_ = kFixedPointScale;
    d.cert_dead_ = false;
    d.constrained_ = 0;
    d.bump_epoch();
  }

  static void reset_controller(AdmissionController& c) {
    c.stats_ = AdmissionStats{};
    c.sequence_ = 0;
    reset_demand(c.demand_);
  }
};

void save_snapshot(const AdmissionController& controller,
                   const std::string& path, std::uint64_t journal_lsn) {
  persist::SectionWriter sw;
  encode_meta(sw, SnapshotKind::Controller, journal_lsn);
  SnapshotCodec::encode_controller(controller, sw.begin(kSecController));
  sw.finish(path);
}

SnapshotMeta load_snapshot(AdmissionController& out,
                           const std::string& path) {
  try {
    const persist::SectionReader sr(persist::read_file(path));
    const SnapshotMeta meta = decode_meta(sr);
    ByteReader r = sr.section(kSecController);
    SnapshotCodec::decode_controller(out, r, sr.version());
    return meta;
  } catch (const std::out_of_range&) {
    throw PersistError(PersistErrc::Truncated, path);
  }
}

void apply_record(AdmissionController& out,
                  std::span<const std::uint8_t> payload,
                  ReplayObserver* observer) {
  const Record rec = decode_record(payload);
  switch (rec.op) {
    case JournalOp::Admit: {
      const AdmissionDecision d = out.try_admit(rec.task);
      if (observer != nullptr) observer->on_admit(d);
      break;
    }
    case JournalOp::AdmitGroup: {
      const GroupDecision d = out.admit_group(rec.group);
      if (observer != nullptr) observer->on_admit_group(d);
      break;
    }
    case JournalOp::Remove: {
      const bool removed = out.remove(rec.id);
      if (observer != nullptr) observer->on_remove(rec.id, removed);
      break;
    }
    case JournalOp::RemoveGroup: {
      const std::size_t removed = out.remove_group(rec.ids);
      if (observer != nullptr) {
        observer->on_remove_group(rec.ids, removed);
      }
      break;
    }
    case JournalOp::ClientMark:
      // Pure annotation — no controller state change. The observer
      // learns which (client, request_id) the NEXT record's outcome
      // belongs to.
      if (observer != nullptr) {
        observer->on_mark(rec.client, rec.request_id, rec.mark_flags);
      }
      break;
  }
}

std::vector<std::uint8_t> encode_snapshot(
    const AdmissionController& controller, std::uint64_t journal_lsn) {
  persist::SectionWriter sw;
  encode_meta(sw, SnapshotKind::Controller, journal_lsn);
  SnapshotCodec::encode_controller(controller, sw.begin(kSecController));
  return sw.encode();
}

SnapshotMeta load_snapshot_bytes(AdmissionController& out,
                                 std::vector<std::uint8_t> bytes) {
  try {
    const persist::SectionReader sr(std::move(bytes));
    const SnapshotMeta meta = decode_meta(sr);
    ByteReader r = sr.section(kSecController);
    SnapshotCodec::decode_controller(out, r, sr.version());
    return meta;
  } catch (const std::out_of_range&) {
    throw PersistError(PersistErrc::Truncated, "snapshot bytes");
  }
}

SnapshotMeta read_snapshot_meta(std::vector<std::uint8_t> bytes) {
  try {
    const persist::SectionReader sr(std::move(bytes));
    return decode_meta(sr);
  } catch (const std::out_of_range&) {
    throw PersistError(PersistErrc::Truncated, "snapshot bytes");
  }
}

std::uint32_t store_digest(const AdmissionController& controller) {
  ByteWriter w;
  SnapshotCodec::encode_controller(controller, w);
  return crc32(w.data());
}

RecoveryResult recover(AdmissionController& out,
                       const std::string& snapshot_path,
                       const std::string& journal_path,
                       ReplayObserver* observer) {
  RecoveryResult result;
  // Replay must not re-journal the records it applies.
  persist::Journal* attached = out.journal();
  out.attach_journal(nullptr);
  try {
    if (!snapshot_path.empty() && persist::file_exists(snapshot_path)) {
      const SnapshotMeta meta = load_snapshot(out, snapshot_path);
      result.snapshot_loaded = true;
      result.snapshot_lsn = meta.journal_lsn;
    } else {
      // Cold start: recovery reconstructs from the artifacts alone, so
      // any state the caller's controller already holds must go —
      // replaying the journal on top of it would double-apply every
      // record.
      SnapshotCodec::reset_controller(out);
    }
    if (!journal_path.empty() && persist::file_exists(journal_path)) {
      const persist::JournalScan scan = persist::scan_journal(journal_path);
      result.torn_tail = scan.torn_tail;
      result.journal_records = scan.records.size();
      const std::uint64_t from = result.snapshot_lsn;
      if (from > scan.base_lsn + scan.records.size()) {
        throw PersistError(PersistErrc::BadValue,
                           "snapshot is ahead of the journal");
      }
      if (from < scan.base_lsn) {
        // rotate() GC'd records this recovery still needs — the cut
        // outran the snapshot. Replaying only the suffix would silently
        // skip committed operations.
        throw PersistError(PersistErrc::BadValue,
                           "journal rotated past the snapshot LSN");
      }
      for (std::uint64_t i = from - scan.base_lsn; i < scan.records.size();
           ++i) {
        apply_record(out, scan.records[i], observer);
        ++result.replayed;
      }
    }
  } catch (...) {
    out.attach_journal(attached);
    throw;
  }
  out.attach_journal(attached);
  return result;
}

}  // namespace edfkit

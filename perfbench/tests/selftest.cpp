// Checks of the benchmark's own arithmetic and checkers. Run with
// `ctest --test-dir .bench_build` or `.bench_build/perfbench_selftest`;
// exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "opstream.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;
namespace net = edfkit::net;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile(v, 0.50) == 50.0);
  EXPECT(percentile(v, 0.90) == 90.0);  // exactly ten samples beyond
  EXPECT(percentile_supported(100, 0.90));
  EXPECT(!percentile_supported(99, 0.90));  // nine beyond: refused
  EXPECT(percentile_supported(1000, 0.99));
  EXPECT(!percentile_supported(999, 0.99));
  EXPECT(percentile_supported(20, 0.50));
  EXPECT(!percentile_supported(19, 0.50));
  EXPECT(!percentile_supported(0, 0.50));
  v.pop_back();
  EXPECT(throws([&] { (void)percentile(v, 0.90); }));
  EXPECT(throws([] { (void)percentile({}, 0.5); }));
}

void test_metric_names() {
  EXPECT(valid_metric_name("latency_p50_us"));
  EXPECT(valid_metric_name("query.all-approx.us_per_set"));
  EXPECT(valid_metric_name("9lives"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_leading"));
  EXPECT(!valid_metric_name(".leading"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("a/b"));
  EXPECT(!valid_metric_name("quote\""));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));

  Report r;
  r.add("ops_per_s", 1234.5, "1/s", 10);
  EXPECT(throws([&] { r.add("ops_per_s", 1.0, "1/s"); }));
  EXPECT(throws([&] { r.add("bad name", 1.0, "s"); }));
  EXPECT(throws([&] {
    r.add("nan_metric", std::numeric_limits<double>::quiet_NaN(), "s");
  }));
  EXPECT(r.json(true, 3, 0) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}");
}

StreamShape small_shape() {
  StreamShape shape;
  shape.pool_tasks = 10;
  shape.pool_utilization = 0.9;
  shape.live_target = 8;
  shape.group_probability = 0.2;
  shape.group_size = 3;
  return shape;
}

OpStream small_stream() { return OpStream(edfkit::Rng(7), small_shape()); }

/// What a correct server would have answered for the first `n` ops.
std::vector<Answer> honest_log(std::size_t n) {
  OpStream s = small_stream();
  edfkit::AdmissionController c;
  std::vector<Answer> log;
  for (std::size_t i = 0; i < n; ++i) {
    const Op op = *s.next();
    const Applied a = apply(c, op);
    if (op.kind != net::NetOp::RemoveGroup) {
      s.resolve(op.key, a.answer.admitted(),
                op.kind == net::NetOp::Admit ? std::vector<TaskId>{a.answer.id}
                                             : a.answer.ids);
    }
    log.push_back(a.answer);
  }
  return log;
}

CheckResult check(const std::vector<Answer>& log) {
  OpStream s = small_stream();
  edfkit::AdmissionController twin;
  return check_log(log, s, twin);
}

void test_decision_check() {
  const std::vector<Answer> log = honest_log(300);
  EXPECT(check(log).mismatches == 0);
  EXPECT(check(log).ops == 300);

  std::size_t admit = 0;
  while (log[admit].op != net::NetOp::Admit || !log[admit].admitted()) ++admit;

  std::vector<Answer> flipped = log;
  flipped[admit].status = net::NetStatus::Rejected;
  const CheckResult r = check(flipped);
  EXPECT(r.mismatches == 1);
  EXPECT(r.first.rfind("op " + std::to_string(admit) + ":", 0) == 0);

  std::vector<Answer> rung = log;
  rung[admit].rung ^= 1;
  EXPECT(check(rung).mismatches == 1);

  std::vector<Answer> id = log;
  id[admit].id += 1;
  EXPECT(check(id).mismatches == 1);

  std::size_t remove = 0;
  while (log[remove].op != net::NetOp::RemoveGroup) ++remove;
  std::vector<Answer> removed = log;
  removed[remove].removed += 1;
  EXPECT(check(removed).mismatches == 1);

  std::vector<Answer> shed = log;
  shed[admit].status = net::NetStatus::Shed;
  EXPECT(!shed[admit].answered());
  EXPECT(check(shed).mismatches >= 1);

  // A log cut short or run long is an op-count difference the final
  // STATS comparison catches; one op of another kind is caught here.
  std::vector<Answer> kind = log;
  kind[remove].op = net::NetOp::Admit;
  EXPECT(check(kind).mismatches >= 1);
}

void test_pipelined_stream_waits() {
  // Issue ops without answering any: the fill's admits go out, and the
  // first departure waits instead of being skipped.
  OpStream s = small_stream();
  std::vector<Op> issued;
  for (;;) {
    std::optional<Op> op = s.next();
    if (!op) break;
    EXPECT(op->kind != net::NetOp::RemoveGroup);
    issued.push_back(*op);
  }
  EXPECT(issued.size() >= small_shape().live_target);
  for (const Op& op : issued) s.resolve(op.key, true, {TaskId{op.key}});
  EXPECT(s.next().has_value());

  // The same seed gives the same stream.
  OpStream a = small_stream();
  OpStream b = small_stream();
  for (int i = 0; i < 20; ++i) {
    const Op x = *a.next();
    const Op y = *b.next();
    EXPECT(x.kind == y.kind && x.key == y.key && x.task == y.task);
    a.resolve(x.key, false, {});
    b.resolve(y.key, false, {});
  }
}

void test_self_times() {
  // parent [0,100]; children overlap at [20,30] and one sticks out
  // past the parent's end; a grandchild sits inside the first child.
  const std::vector<Span> spans = {
      {"net.tick", 0, 100, kNoParent, 1},
      {"admission.admit", 10, 30, 0, 1},
      {"admission.admit", 20, 50, 0, 1},
      {"persist.fsync", 90, 120, 0, 1},
      {"demand.scan", 15, 25, 1, 1},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // covered: [10,50] and [90,100]
  EXPECT(self[1] == 20 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  const auto by = self_time_by_name(spans);
  EXPECT(by.at("admission.admit").self_ns == 40);
  EXPECT(by.at("admission.admit").count == 2);
  EXPECT(by.at("net.tick").self_ns == 50);

  const Attribution a = attribute(10.0, {3.0, 4.0, 2.0});
  EXPECT(std::fabs(a.residual - 1.0) < 1e-12);
  EXPECT(std::fabs(a.residual_frac - 0.1) < 1e-12);
  EXPECT(attribute(0.0, {}).residual_frac == 0.0);

  const std::vector<Span> orphan = {{"x", 0, 1, 5, 0}};
  EXPECT(throws([&] { (void)self_times(orphan); }));
}

}  // namespace

int main() {
  test_percentiles();
  test_metric_names();
  test_decision_check();
  test_pipelined_stream_waits();
  test_self_times();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}

// Operator kernels and tracing overhead, memory-resident.
//
// The first section times one shared circular scan with four attached
// scanners, recorder off vs on, and prints the best wall time of each
// (the <2% off-path bound is asserted by tests/trace_test.cc).
//
// The second section reports the operator kernels' rows/s (scan with
// filter, hash-join build and probe, hash aggregate on Q1 and on a
// high-cardinality group-by, and one CJOIN level's probe) over
// memory-resident TPC-H lineitem sized by SHARING_BENCH_SF.
// SHARING_BENCH_JSON=<path> emits them as a {"bench": "kernels"} row plus
// the metrics row.

#include <atomic>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cjoin/dimension_table.h"
#include "common/trace.h"
#include "exec/operators.h"
#include "storage/circular_scan.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

int64_t CountRows(const uint8_t* frame) {
  return page_layout::RowCount(frame);
}

/// Replays materialized pages as one operator input, so a kernel is
/// timed without a producer thread in front of it.
class ReplaySource final : public PageSource {
 public:
  explicit ReplaySource(const std::vector<PageRef>& pages) : pages_(pages) {}
  std::size_t NextBatch(std::size_t max_pages,
                        std::vector<PageRef>* out) override {
    std::size_t got = 0;
    for (; got < max_pages && next_ < pages_.size(); ++got) {
      out->push_back(pages_[next_++]);
    }
    return got;
  }
  Status FinalStatus() const override { return Status::OK(); }

 private:
  const std::vector<PageRef>& pages_;
  std::size_t next_ = 0;
};

/// Counts what an operator emits, keeping the pages when asked to.
class CollectSink final : public PageSink {
 public:
  explicit CollectSink(bool keep) : keep_(keep) {}
  bool PutBatch(std::vector<PageRef> batch) override {
    for (PageRef& page : batch) {
      rows += static_cast<int64_t>(page->row_count());
      if (keep_) pages.push_back(std::move(page));
    }
    return true;
  }
  void Close(Status final) override { SHARING_CHECK_OK(final); }

  int64_t rows = 0;
  std::vector<PageRef> pages;

 private:
  bool keep_;
};

int64_t TotalRows(const std::vector<PageRef>& pages) {
  int64_t n = 0;
  for (const PageRef& p : pages) n += static_cast<int64_t>(p->row_count());
  return n;
}

std::vector<PageRef> Materialize(const PlanNodeRef& scan, Database* db) {
  const auto& node = static_cast<const ScanNode&>(*scan);
  Table* table = db->catalog()->GetTable(node.table_name()).value();
  ExecContext ctx;
  CollectSink sink(/*keep=*/true);
  CircularScanGroup group(table);
  SHARING_CHECK_OK(RunScan(node, table, group, &ctx, &sink));
  return std::move(sink.pages);
}

/// Best wall seconds of `trials` runs of `run`.
template <typename Run>
double BestSeconds(int trials, Run run) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    Stopwatch wall;
    run();
    const double s = wall.ElapsedSeconds();
    if (t == 0 || s < best) best = s;
  }
  return best;
}

struct KernelRates {
  int64_t lineitem_rows = 0;
  double scan_filter = 0, join_build = 0, join_probe = 0;
  double agg_q1 = 0, agg_high_card = 0;
  int64_t agg_high_card_groups = 0;
  double cjoin_probe = 0;
  int64_t cjoin_probe_survivors = 0;
};

/// Times each query-centric kernel on one thread over pre-materialized
/// input; rows/s counts the kernel's input rows (for the probe: probe
/// rows, with the build-only time subtracted).
KernelRates MeasureKernels(Database* db) {
  constexpr int kTrials = 5;
  const double sf = ScaleFactor(0.02);
  Table* lineitem =
      tpch::GenerateLineitem(db->catalog(), db->buffer_pool(), sf, 42)
          .value();
  const Schema li = lineitem->schema();
  // A supplier-like dimension: one row per l_suppkey value (1..10000).
  Schema supp_schema(
      {Column::Int64("s_suppkey"), Column::String("s_name", 12)});
  Table* supp = db->catalog()
                    ->CreateTable("supp", supp_schema, db->buffer_pool())
                    .value();
  {
    TableAppender appender(supp);
    for (int64_t k = 1; k <= 10000; ++k) {
      appender.AppendRow().value().SetInt64(0, k).SetString(
          1, "S" + std::to_string(k));
    }
    SHARING_CHECK_OK(appender.Finish());
  }

  KernelRates r;
  r.lineitem_rows = static_cast<int64_t>(lineitem->num_rows());
  auto per_second = [](int64_t rows, double s) {
    return s > 0 ? static_cast<double>(rows) / s : 0.0;
  };

  // Scan with filter: Q1's l_shipdate predicate + six-column projection.
  const PlanNodeRef q1 = tpch::MakeQ1Plan(90);
  const PlanNodeRef q1_scan = q1->children()[0];
  r.scan_filter = per_second(
      r.lineitem_rows, BestSeconds(kTrials, [&] {
        ExecContext ctx;
        CollectSink sink(/*keep=*/false);
        CircularScanGroup group(lineitem);
        SHARING_CHECK_OK(
            RunScan(static_cast<const ScanNode&>(*q1_scan), lineitem, group,
                    &ctx, &sink));
      }));

  // Hash aggregate, Q1: 8 aggregates over 4 (returnflag, linestatus)
  // groups.
  const std::vector<PageRef> q1_input = Materialize(q1_scan, db);
  r.agg_q1 = per_second(
      TotalRows(q1_input), BestSeconds(kTrials, [&] {
        ExecContext ctx;
        ReplaySource in(q1_input);
        CollectSink sink(/*keep=*/false);
        SHARING_CHECK_OK(RunHashAggregate(
            static_cast<const AggregateNode&>(*q1), &in, &ctx, &sink));
      }));

  // Hash aggregate, high cardinality: sum + count by l_orderkey.
  const PlanNodeRef order_scan = std::make_shared<ScanNode>(
      "lineitem", li, TruePredicate(), std::vector<std::size_t>{0, 5});
  const std::vector<PageRef> order_rows = Materialize(order_scan, db);
  auto by_order = std::make_shared<AggregateNode>(
      order_scan, std::vector<std::size_t>{0},
      std::vector<AggSpec>{AggSpec::Sum(Col(1, ValueType::kDouble), "s"),
                           AggSpec::Count("n")});
  r.agg_high_card = per_second(
      TotalRows(order_rows), BestSeconds(kTrials, [&] {
        ExecContext ctx;
        ReplaySource in(order_rows);
        CollectSink sink(/*keep=*/false);
        SHARING_CHECK_OK(RunHashAggregate(*by_order, &in, &ctx, &sink));
        r.agg_high_card_groups = sink.rows;
      }));

  // Hash-join build: every lineitem row keyed by l_orderkey (duplicate
  // keys chain), against an empty probe side.
  const std::vector<PageRef> none;
  const JoinNode build_join(order_scan, order_scan, 0, 0);
  r.join_build = per_second(
      TotalRows(order_rows), BestSeconds(kTrials, [&] {
        ExecContext ctx;
        ReplaySource build(order_rows), probe(none);
        CollectSink sink(/*keep=*/false);
        SHARING_CHECK_OK(RunHashJoin(build_join, &build, &probe, &ctx, &sink));
      }));

  // Hash-join probe: lineitem (l_suppkey, l_extendedprice) against the
  // 10k-row supplier build; every probe row matches once.
  const PlanNodeRef supp_scan = std::make_shared<ScanNode>(
      "supp", supp_schema, TruePredicate(), std::vector<std::size_t>{0, 1});
  const PlanNodeRef supp_key_scan = std::make_shared<ScanNode>(
      "lineitem", li, TruePredicate(), std::vector<std::size_t>{2, 5});
  const std::vector<PageRef> supp_rows = Materialize(supp_scan, db);
  const std::vector<PageRef> probe_rows = Materialize(supp_key_scan, db);
  const JoinNode probe_join(supp_scan, supp_key_scan, 0, 0);
  auto run_join = [&](const std::vector<PageRef>& probe_pages) {
    ExecContext ctx;
    ReplaySource build(supp_rows), probe(probe_pages);
    CollectSink sink(/*keep=*/false);
    SHARING_CHECK_OK(RunHashJoin(probe_join, &build, &probe, &ctx, &sink));
  };
  const double build_only = BestSeconds(kTrials, [&] { run_join(none); });
  const double with_probe =
      BestSeconds(kTrials, [&] { run_join(probe_rows); });
  r.join_probe = per_second(TotalRows(probe_rows),
                            std::max(with_probe - build_only, 1e-9));

  // CJOIN probe: one level of the shared hash-join chain over the same
  // l_suppkey rows — the flat dimension table's key lookup plus the AND of
  // the fact row's bitmap with the matched row's — with 32 queries of
  // varied selectivity admitted on the supplier level.
  DimensionHashTable level(supp, 0, /*max_queries=*/64);
  for (int64_t q = 0; q < 32; ++q) {
    auto sel = level.Select(*Cmp(
        CmpOp::kEq,
        Arith(ArithOp::kMod, Col(0, ValueType::kInt64), Lit(q % 8 + 2)),
        Lit(int64_t{0})));
    SHARING_CHECK_OK(sel.status());
    level.Grant(static_cast<std::size_t>(q), sel.value());
  }
  constexpr uint64_t kAdmitted = (uint64_t{1} << 32) - 1;
  r.cjoin_probe = per_second(
      TotalRows(probe_rows), BestSeconds(kTrials, [&] {
        const uint64_t pass = level.AllRowsBits(0) | level.NeutralBits(0);
        int64_t survivors = 0;
        for (const PageRef& page : probe_rows) {
          const std::size_t n = page->row_count();
          for (std::size_t i = 0; i < n; ++i) {
            int64_t fk;
            std::memcpy(&fk, page->RowAt(i), sizeof(fk));
            const uint32_t id = level.Find(fk);
            const uint64_t bits =
                id == DimensionHashTable::kNoRow
                    ? 0
                    : kAdmitted & (level.RowBits(id, 0) | pass);
            survivors += bits != 0;
          }
        }
        r.cjoin_probe_survivors = survivors;
      }));
  return r;
}

}  // namespace

int main() {
  auto db = MakeMemoryDb(/*frames=*/64);
  // A moderate table, bigger than the 64-frame pool.
  Schema schema({Column::Int64("id"), Column::Double("v")});
  auto table_or = db->catalog()->CreateTable("t", schema, db->buffer_pool());
  SHARING_CHECK(table_or.ok());
  Table* table = table_or.value();
  {
    TableAppender appender(table);
    for (int64_t i = 0; i < 200'000; ++i) {
      auto row = appender.AppendRow();
      SHARING_CHECK(row.ok());
      row.value().SetInt64(0, i).SetDouble(1, double(i));
    }
    SHARING_CHECK_OK(appender.Finish());
  }
  std::printf("table: %llu rows, %zu pages; pool: 64 frames\n\n",
              static_cast<unsigned long long>(table->num_rows()),
              table->num_pages());

  // -------------------------------------------------------------------
  // Tracing overhead: the same shared scan, memory-resident (so the
  // instrumented hot path is CPU-bound, the worst case for tracing),
  // recorder off vs on. Off must be indistinguishable from baseline —
  // the <2% bound is asserted by tests/trace_test.cc; this section just
  // prints the numbers. Min of 3 trials per mode (scheduler noise).
  // -------------------------------------------------------------------
  PrintHeader("Tracing overhead: shared scan (memory-resident), off vs on");
  constexpr int kTraceScanners = 4;
  constexpr int kTrials = 3;
  std::printf("%-10s %12s %16s\n", "tracing", "wall(ms)", "resident-events");
  for (bool traced : {false, true}) {
    if (traced) Trace::Enable();
    double best_ms = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Stopwatch wall;
      CircularScanGroup group(table, 4, db->metrics());
      std::vector<std::thread> threads;
      std::atomic<int64_t> rows{0};
      for (int s = 0; s < kTraceScanners; ++s) {
        threads.emplace_back([&] {
          auto ticket = group.Attach();
          int64_t n = 0;
          while (ScanPageRef page = ticket->Next()) {
            n += CountRows(page->data());
          }
          rows.fetch_add(n);
        });
      }
      for (auto& t : threads) t.join();
      SHARING_CHECK(rows.load() ==
                    int64_t(kTraceScanners) * int64_t(table->num_rows()));
      const double ms = wall.ElapsedSeconds() * 1e3;
      if (trial == 0 || ms < best_ms) best_ms = ms;
    }
    std::printf("%-10s %12.1f %16zu\n", traced ? "on" : "off", best_ms,
                Trace::ResidentEvents());
    if (traced) Trace::Disable();
  }

  // -------------------------------------------------------------------
  // Operator kernels: rows/s of each query-centric kernel, one thread,
  // memory-resident, best of 5.
  // -------------------------------------------------------------------
  auto kernel_db = MakeMemoryDb();
  const KernelRates k = MeasureKernels(kernel_db.get());
  std::printf("\n");
  PrintHeader("Operator kernels: rows/s (memory-resident, one thread)");
  std::printf("lineitem: %lld rows; high-cardinality groups: %lld; "
              "CJOIN probe survivors: %lld\n",
              static_cast<long long>(k.lineitem_rows),
              static_cast<long long>(k.agg_high_card_groups),
              static_cast<long long>(k.cjoin_probe_survivors));
  std::printf("%-26s %14s\n", "kernel", "Mrows/s");
  const std::pair<const char*, double> rows[] = {
      {"scan+filter (Q1)", k.scan_filter},
      {"hash-join build", k.join_build},
      {"hash-join probe", k.join_probe},
      {"hash-agg Q1 (4 groups)", k.agg_q1},
      {"hash-agg by l_orderkey", k.agg_high_card},
      {"cjoin probe (32 queries)", k.cjoin_probe},
  };
  for (const auto& [name, rate] : rows) {
    std::printf("%-26s %14.2f\n", name, rate / 1e6);
  }

  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    std::FILE* json = std::fopen(path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for JSON output\n", path);
      return 1;
    }
    bool first = true;
    std::fprintf(json,
                 "[\n  {\"bench\": \"kernels\", \"lineitem_rows\": %lld, "
                 "\"scan_filter_rows_per_s\": %.0f, "
                 "\"join_build_rows_per_s\": %.0f, "
                 "\"join_probe_rows_per_s\": %.0f, "
                 "\"agg_q1_rows_per_s\": %.0f, "
                 "\"agg_high_card_rows_per_s\": %.0f, "
                 "\"agg_high_card_groups\": %lld, "
                 "\"cjoin_probe_rows_per_s\": %.0f}",
                 static_cast<long long>(k.lineitem_rows), k.scan_filter,
                 k.join_build, k.join_probe, k.agg_q1, k.agg_high_card,
                 static_cast<long long>(k.agg_high_card_groups),
                 k.cjoin_probe);
    first = false;
    JsonMetricsRow(json, &first, kernel_db->metrics()->Snapshot());
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }
  return 0;
}

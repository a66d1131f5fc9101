// CJoinPipeline: the Global Query Plan operator (CJOIN, VLDBJ'11), as
// integrated into QPipe by the demo paper (Fig. 2).
//
// One always-on pipeline evaluates the star joins of every concurrent
// query:
//
//   preprocessor ──► shared hash-join chain (one level per dimension)
//        │                       │ bitwise AND of query bitmaps
//        ▼                       ▼
//   circular scan of the    distributor: routes each surviving joined
//   fact table; admission   tuple to the queries whose bit is set
//   marks on the cursor
//
// Query admission is *mark-based*: a query becomes active at the current
// scan position and completes when the scan has delivered exactly
// `num_fact_pages` pages to it (one full cycle, no pipeline flush).
//
// Admission never stops the fact cycle. It runs in two phases:
//  1. On the thread that calls ExecuteQuery, each dimension predicate is
//     evaluated over its level's read-only flat table (loaded on first
//     use, dimension_table.h) into a row selection.
//  2. The driver takes a free query bit and sets it on those rows (or in
//     the level's all-rows bitmap), and in the neutral bitmap of every
//     level the query does not join, with relaxed atomic fetch_or. The
//     queries waiting together are admitted in one such pass.
// Departure clears exactly the bits admission set. Probes read the bitmaps
// without a lock, because:
//  * a page task starts from a bitmap holding only its own snapshot of
//    queries, so a stale bit of another query, or one flipping mid-page,
//    is ANDed away before it can route a tuple;
//  * a query's bits are set before its first page task is submitted and
//    cleared only after its last page task completes.
//
// The driver thread only admits, issues readahead and snapshots the
// dispatch list into page tasks, at most `max_in_flight_pages` at once.
// Each worker fetches its task's fact page itself, so buffer-pool misses
// overlap across workers, and processes it page-at-a-time: the fact
// predicates through EvalBoolBatch, then a level-by-level probe over the
// rows still alive (only the levels the task's queries join), then one
// emit-lock acquisition per (page, query) with output.
//
// Given an IoScheduler, the driver reads the fact table ahead through the
// same `ScanReadahead` helper QPipe's circular scans use
// (storage/circular_scan.h): before each page task it queues
// kScanPrefetch jobs for the next `prefetch_depth` positions, so workers
// rarely pay a buffer-pool miss themselves. Without a scheduler every
// miss is paid by the worker that needs the page.
//
// A query whose context stops (cancellation or deadline) leaves the
// pending queue or the dispatch list at the driver's next pass and
// completes with the context's terminal status once its in-flight page
// tasks drain. A fact page that fails to read fails exactly the queries
// of its task, with the read's status.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cjoin/dimension_table.h"
#include "cjoin/star_query.h"
#include "common/elastic_pool.h"
#include "common/metrics.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/page_stream.h"
#include "io/io_scheduler.h"
#include "storage/buffer_pool.h"
#include "storage/circular_scan.h"
#include "storage/table.h"

namespace sharing {

struct CJoinOptions {
  /// Bitmap capacity == max concurrently admitted queries. Admissions
  /// beyond this wait for a free bit.
  std::size_t max_queries = 64;

  /// Page-processing worker threads (the pipeline's intra-operator
  /// parallelism).
  std::size_t workers = 2;

  /// Fact pages in flight at once (prefetch window of the circular scan).
  std::size_t max_in_flight_pages = 4;
};

/// One shared hash-join level: which dimension it joins and through which
/// fact foreign key.
struct CJoinLevelSpec {
  std::string dim_table;
  std::size_t fk_col_in_fact = 0;
  std::size_t pk_col_in_dim = 0;
};

class CJoinPipeline {
 public:
  /// The pipeline is built once for a star schema: the fact table plus one
  /// level per dimension (queries may use any subset of the levels).
  /// `scheduler` (optional): fact-scan readahead of the next
  /// `prefetch_depth` positions at kScanPrefetch priority; null = none.
  CJoinPipeline(Catalog* catalog, const std::string& fact_table,
                std::vector<CJoinLevelSpec> levels, CJoinOptions options,
                MetricsRegistry* metrics = &MetricsRegistry::Global(),
                std::shared_ptr<IoScheduler> scheduler = nullptr,
                std::size_t prefetch_depth = 4);
  ~CJoinPipeline();

  SHARING_DISALLOW_COPY_AND_MOVE(CJoinPipeline);

  /// Admits `spec` and blocks until the query has seen one full cycle of
  /// the fact table, or has stopped or failed. Results (pages of
  /// spec.OutputSchema()) stream into `sink`, which is closed with the
  /// query's terminal status. Admission phase 1 runs on the calling
  /// thread.
  Status ExecuteQuery(const StarQuerySpec& spec, ExecContextRef ctx,
                      PageSinkRef sink);

  const std::string& fact_table_name() const { return fact_->name(); }
  const Table* fact_table() const { return fact_; }

 private:
  struct Level {
    CJoinLevelSpec spec;
    std::size_t fk_offset = 0;  // byte offset of the fk in the fact row
    std::unique_ptr<DimensionHashTable> ht;
  };

  /// Row-assembly instruction: copy `width` bytes from the fact row
  /// (level < 0) or the matched dimension row of `level` into the output
  /// row.
  struct CopyOp {
    int level = -1;
    std::size_t src_off = 0;
    std::size_t dst_off = 0;
    std::size_t width = 0;
  };

  struct ActiveQuery {
    StarQuerySpec spec;
    ExecContextRef ctx;
    PageSinkRef sink;
    Schema output_schema;
    std::vector<CopyOp> copy_ops;
    std::vector<std::size_t> levels_used;  // pipeline level per spec dim
    /// Admission phase 1: the rows of levels_used[i] satisfying
    /// spec.dims[i]'s predicate; granted and revoked under `bit`.
    std::vector<DimensionHashTable::Selection> selections;
    bool trivial_fact_pred = false;

    std::size_t bit = 0;
    std::atomic<int64_t> pages_remaining{0};

    /// Driver-thread-only: page tasks still to be dispatched to this
    /// query. A query appears in exactly `num_fact_pages` task snapshots
    /// (its one full circular-scan cycle) unless it stops first;
    /// afterwards it leaves the dispatch list but stays admitted until
    /// the last task completes.
    int64_t dispatches_left = 0;
    /// Stopped, failed or consumer gone: no further output.
    std::atomic<bool> muted{false};

    std::mutex emit_mutex;
    std::shared_ptr<RowPage> builder;

    /// Set (once) when one of this query's fact pages fails to read; the
    /// query completes with it.
    std::mutex fail_mutex;
    Status fail_status;

    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool done = false;
    Status final_status;
  };
  using ActiveQueryRef = std::shared_ptr<ActiveQuery>;

  /// One fact page (absolute read sequence `seq`) and the queries owed it.
  struct PageTask {
    uint64_t seq = 0;
    std::vector<ActiveQueryRef> queries;
  };

  StatusOr<ActiveQueryRef> BuildActiveQuery(const StarQuerySpec& spec,
                                            ExecContextRef ctx,
                                            PageSinkRef sink) const;

  void DriverLoop();
  void DropStopped();
  void AdmitPending();
  void ProcessPage(const PageTask& task, bool release_as_next_victim);
  /// Counts one delivered page per task query; finalizes the last.
  void CompletePage(const PageTask& task);
  void FinalizeQuery(const ActiveQueryRef& q);
  void SignalDone(const ActiveQueryRef& q, Status final);

  Catalog* catalog_;
  Table* fact_;
  CJoinOptions options_;
  MetricsRegistry* metrics_;
  Counter* fact_tuples_in_;
  Counter* tuples_out_;
  Counter* tuples_dropped_;
  Counter* queries_admitted_;
  Counter* queries_completed_;
  Counter* bitmap_and_ops_;
  Counter* admission_epochs_;
  Counter* admission_micros_;

  std::vector<Level> levels_;
  std::size_t bitmap_words_;

  // Driver state, and the bit bookkeeping departures update from workers.
  std::mutex driver_mutex_;
  std::condition_variable driver_cv_;
  std::deque<ActiveQueryRef> pending_;
  std::vector<ActiveQueryRef> active_;  // admitted, not yet finalized
  std::vector<std::size_t> free_bits_;
  bool shutdown_ = false;

  /// Queries still owed page dispatches. Owned by the driver thread
  /// exclusively (no locking needed).
  std::vector<ActiveQueryRef> dispatching_;

  /// Driver thread only: the absolute fact read sequence (position =
  /// fact_seq_ % num_pages) and its readahead, which is destroyed after
  /// the driver is joined.
  uint64_t fact_seq_ = 0;
  ScanReadahead readahead_;

  // In-flight page window.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;

  std::unique_ptr<ElasticThreadPool> workers_;
  std::thread driver_;
};

}  // namespace sharing

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
// The fact cycle is a `ScanCursor` (storage/circular_scan.h, DESIGN.md
// decision #22), the same cursor QPipe's circular scans ride; its riders
// are the admitted queries. The pipeline has no driver thread: each of
// its `workers` runs one loop that, under the pipeline mutex, drops
// stopped queries, admits pending ones and claims the next fact position
// (the claim issues the position's readahead), then outside the lock
// fetches that page and processes it for the queries the claim returned.
// When nobody rides the cycle, the workers sleep until ExecuteQuery or a
// departure wakes them; the worker count bounds the pages in flight.
//
// Admission never stops the fact cycle. It runs in two phases:
//  1. On the thread that calls ExecuteQuery, each dimension predicate is
//     evaluated over its level's read-only flat table (loaded on first
//     use, dimension_table.h) into a row selection.
//  2. A worker, under the pipeline mutex, takes a free query bit and sets
//     it on those rows (or in the level's all-rows bitmap), and in the
//     neutral bitmap of every level the query does not join, with relaxed
//     atomic fetch_or. The queries waiting together are admitted in one
//     such pass, and join the cursor as riders.
// Departure clears exactly the bits admission set. Probes read the bitmaps
// without a lock, because:
//  * a page starts from a bitmap holding only the queries its claim
//    returned, so a stale bit of another query, or one flipping mid-page,
//    is ANDed away before it can route a tuple;
//  * a query's bits are set before the first claim that includes it and
//    cleared only after its last claimed page completes.
//
// Each worker processes its page page-at-a-time: the fact predicates
// through EvalBoolBatch, then a level-by-level probe over the rows still
// alive (only the levels the claim's queries join), then one emit-lock
// acquisition per (page, query) with output. Buffer-pool misses overlap
// across workers; given an IoScheduler, the cursor reads the fact table
// ahead at kScanPrefetch priority, so workers rarely pay a miss
// themselves. Without a scheduler every miss is paid by the worker that
// claimed the page.
//
// A query whose context stops (cancellation or deadline) leaves the
// pending queue or the cursor at the next claim and completes with the
// context's terminal status once its claimed pages drain. A fact page
// that fails to read fails exactly the queries of its claim, with the
// read's status.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
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

  /// Worker threads that claim and process fact pages (the pipeline's
  /// intra-operator parallelism, and the bound on pages in flight). At
  /// least one runs.
  std::size_t workers = 2;
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

  StatusOr<ActiveQueryRef> BuildActiveQuery(const StarQuerySpec& spec,
                                            ExecContextRef ctx,
                                            PageSinkRef sink) const;

  /// One worker: drop, admit and claim under driver_mutex_, then process
  /// the claimed page; returns at shutdown.
  void WorkerLoop();
  /// Under driver_mutex_: stopped pending queries go to `dropped`; stopped
  /// or muted riders leave the cursor, and those with no claimed page
  /// left to complete go to `finished`.
  void DropStopped(std::vector<ActiveQueryRef>* dropped,
                   std::vector<ActiveQueryRef>* finished);
  /// Under driver_mutex_: admission phase 2 for every pending query a
  /// free bit allows. A query over an empty fact table goes to `finished`.
  void AdmitPending(std::vector<ActiveQueryRef>* finished);
  /// Fetches fact position `seq` and runs it for `queries`, then
  /// completes it for each of them.
  void ProcessPage(uint64_t seq, const std::vector<ActiveQueryRef>& queries);
  /// Counts one delivered page per query; finalizes the last.
  void CompletePage(const std::vector<ActiveQueryRef>& queries);
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

  // Admission state, the bit bookkeeping departures update, and the
  // claims on the fact cycle.
  std::mutex driver_mutex_;
  std::condition_variable driver_cv_;  // idle workers wait here
  std::deque<ActiveQueryRef> pending_;
  std::vector<ActiveQueryRef> active_;  // admitted, not yet finalized
  std::vector<std::size_t> free_bits_;
  bool shutdown_ = false;

  /// The fact cycle; its riders are the admitted queries still owed
  /// positions. Claimed only under driver_mutex_.
  ScanCursor<ActiveQueryRef> cursor_;

  std::unique_ptr<ElasticThreadPool> workers_;
};

}  // namespace sharing

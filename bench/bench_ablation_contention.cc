// Ablation I: sharing hot-path contention — one producer fanning out to
// 1/2/4/8/16/32 pull readers, resident vs spill-pressure configs.
//
// The paper's pull model exists so ONE producer can feed hundreds of
// concurrent consumers; that promise dies if the SharedPagesList
// serializes every reader through one mutex. This bench measures the two
// sides of the rebuilt hot path:
//
//  * aggregate reader throughput (pages/s summed over readers) — with
//    seqlock-style publication a resident page is read lock-free, so the
//    aggregate must GROW with fan-out instead of collapsing on the list
//    lock (acceptance: 16-reader aggregate >= 4x the 1-reader aggregate
//    on the resident config);
//  * producer append latency — per-reader parking means the producer
//    only ever touches parked readers, so its batch-append p99 must stay
//    within 2x of the 1-reader case even at 32 readers (resident
//    config).
//
// The spill-pressure config (small SP budget + async spill writes) is
// reported alongside: it shares the fast path but adds governor
// rebalancing to every append, so its absolute numbers trail the
// resident config's — the shape (scaling with fan-out) must survive.
//
// Latencies are exact percentiles over every batch append (not the
// log-bucketed metrics histogram — a factor-of-two bucket would swallow
// the 2x acceptance bound). The gated metric is producer THREAD CPU time
// per append: it captures exactly what the producer pays (bookkeeping +
// at most one seeded wake) and is immune to the wakeup-preemption noise
// an oversubscribed host injects into wall time (the woken reader can
// preempt the producer inside the timed window); wall p99 is reported
// alongside, ungated.
//
// SHARING_BENCH_SF scales the page count; SHARING_BENCH_JSON=<path> also
// emits the sweep as JSON (ci/verify.sh records BENCH_contention.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics_format.h"
#include "qpipe/batch_pipe.h"
#include "qpipe/sharing_channel.h"
#include "server/admin_server.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

constexpr std::size_t kRowWidth = 64;
constexpr std::size_t kRowsPerPage = 128;  // 8 KiB of row bytes per page
// Pages per put and per read, as at the engine's stage boundaries.
constexpr std::size_t kAppendBatch = kTransportBatch;
constexpr std::size_t kSpillBudgetPages = 32;

PageRef MakePage(int64_t tag) {
  auto page = std::make_shared<RowPage>(kRowWidth, kRowWidth * kRowsPerPage);
  for (std::size_t r = 0; r < kRowsPerPage; ++r) {
    uint8_t* slot = page->AppendSlot();
    for (std::size_t b = 0; b < kRowWidth; ++b) {
      slot[b] = static_cast<uint8_t>(tag + 31 * r + b);
    }
  }
  return page;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU nanoseconds consumed by the CALLING thread. The append-latency
/// gate uses this, not wall time: on an oversubscribed host a woken
/// reader can preempt the producer inside the timed window, and the gate
/// is about what the producer PAYS per append (bookkeeping + at most one
/// seeded wake), not about scheduler interleaving.
int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct CellResult {
  double wall_ms = 0;
  double aggregate_pages_per_sec = 0;
  double producer_pages_per_sec = 0;
  int64_t append_p50_us = 0;   // producer CPU time per batch append
  int64_t append_p99_us = 0;   // producer CPU time per batch append
  int64_t append_wall_p99_us = 0;
  int64_t lock_waits = 0;
  int64_t parks = 0;
  int64_t spilled = 0;
  bool ok = true;
  MetricsSnapshot snap;  // the cell's full registry (JsonMetricsRow)
};

/// One cell: a producer appends `pages` through a pull channel in
/// engine-sized batches while `readers` consumer threads drain
/// concurrently (each touching every page — the broadcast the SPL
/// exists for). Wall is start-to-last-drain.
CellResult RunCell(std::size_t pages, std::size_t readers, bool spill,
                   bool scrape = false) {
  MetricsRegistry metrics;
  std::shared_ptr<IoScheduler> scheduler;
  SharingChannelOptions options;
  options.metrics = &metrics;

  // Scrape variant (the admin-server perturbation gate): a live admin
  // server exports this cell's registry as Prometheus text while a
  // client polls it at 10 Hz — the acceptance bound says the sharing
  // hot path must not feel it (scrape handlers snapshot under the
  // registry mutex, never under SPL latches).
  std::unique_ptr<AdminServer> admin;
  std::thread scraper;
  std::atomic<bool> scrape_stop{false};
  if (scrape) {
    AdminServer::Options aopts;
    aopts.port = 0;
    admin = std::make_unique<AdminServer>(aopts);
    MetricsRegistry* registry = &metrics;
    admin->Handle("/metrics", [registry](const HttpRequest&) {
      return HttpResponse::Text(
          MetricsPrometheusText(registry->SnapshotTyped()));
    });
    if (!admin->Start().ok()) {
      std::fprintf(stderr, "admin server failed to start for scrape cell\n");
      std::exit(1);
    }
    const int port = admin->port();
    scraper = std::thread([port, &scrape_stop] {
      while (!scrape_stop.load(std::memory_order_acquire)) {
        auto r = AdminHttpGet(port, "/metrics");
        if (!r.ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  if (spill) {
    IoScheduler::Options iopts;
    iopts.threads = 2;
    iopts.metrics = &metrics;
    scheduler = std::make_shared<IoScheduler>(iopts);
    SpBudgetGovernor::Options gopts;
    gopts.budget_pages = kSpillBudgetPages;
    gopts.scheduler = scheduler;
    gopts.metrics = &metrics;
    options.governor = SpBudgetGovernor::Create(std::move(gopts));
  }
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));

  std::vector<PageSourceRef> sources;
  for (std::size_t r = 0; r < readers; ++r) {
    sources.push_back(channel->AttachReader());
  }

  CellResult result;
  std::vector<int64_t> batch_ns;
  batch_ns.reserve(pages / kAppendBatch + 1);
  std::atomic<bool> failed{false};

  const int64_t wall_start = NowNanos();
  std::vector<std::thread> consumers;
  consumers.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    consumers.emplace_back([&, r] {
      std::vector<PageRef> got;
      got.reserve(kAppendBatch);
      std::size_t count = 0;
      uint64_t checksum = 0;
      for (;;) {
        got.clear();
        const std::size_t n = sources[r]->NextBatch(kAppendBatch, &got);
        if (n == 0) break;
        for (const PageRef& page : got) {
          checksum += page->RowAt(0)[0];  // touch: a real consumer reads
        }
        count += n;
      }
      if (count != pages || checksum == ~uint64_t{0}) failed.store(true);
    });
  }

  std::vector<int64_t> batch_wall_ns;
  batch_wall_ns.reserve(pages / kAppendBatch + 1);
  std::thread producer([&] {
    std::vector<PageRef> batch;
    batch.reserve(kAppendBatch);
    for (std::size_t i = 0; i < pages;) {
      batch.clear();
      for (std::size_t j = 0; j < kAppendBatch && i < pages; ++j, ++i) {
        batch.push_back(MakePage(static_cast<int64_t>(i)));
      }
      const int64_t wall_start_ns = NowNanos();
      const int64_t cpu_start_ns = ThreadCpuNanos();
      if (!channel->PutBatch(std::move(batch))) {
        failed.store(true);
        break;
      }
      batch_ns.push_back(ThreadCpuNanos() - cpu_start_ns);
      batch_wall_ns.push_back(NowNanos() - wall_start_ns);
      batch = {};
    }
    channel->Close(Status::OK());
  });

  producer.join();
  for (auto& t : consumers) t.join();
  const int64_t wall_ns = NowNanos() - wall_start;
  if (scrape) {
    scrape_stop.store(true, std::memory_order_release);
    scraper.join();
    admin->Stop();
  }
  if (scheduler != nullptr) scheduler->Shutdown();

  result.ok = !failed.load();
  result.wall_ms = static_cast<double>(wall_ns) / 1e6;
  const double wall_sec = static_cast<double>(wall_ns) / 1e9;
  result.aggregate_pages_per_sec =
      static_cast<double>(pages * readers) / wall_sec;
  result.producer_pages_per_sec = static_cast<double>(pages) / wall_sec;
  auto percentile = [](std::vector<int64_t>& values, double q) -> int64_t {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    return values[idx] / 1000;  // ns -> us
  };
  result.append_p50_us = percentile(batch_ns, 0.50);
  result.append_p99_us = percentile(batch_ns, 0.99);
  result.append_wall_p99_us = percentile(batch_wall_ns, 0.99);
  MetricsSnapshot snap = metrics.Snapshot();
  result.lock_waits = snap[metrics::kSpLockWaits];
  result.parks = snap[metrics::kSpReaderParks];
  result.spilled = snap[metrics::kSpPagesSpilled];
  result.snap = std::move(snap);
  return result;
}

}  // namespace

int main() {
  const double sf = ScaleFactor(1.0);
  const std::size_t pages =
      std::max<std::size_t>(512, static_cast<std::size_t>(8192 * sf));
  const std::vector<std::size_t> fan_outs = {1, 2, 4, 8, 16, 32};

  PrintHeader(
      "Ablation I: sharing hot-path contention (fan-out x resident/spill)");
  std::printf(
      "pages=%zu (%zu KiB each), append batch=%zu, spill budget=%zu "
      "pages\none producer, N pull readers each draining the full "
      "stream.\n\n",
      pages, kRowWidth * kRowsPerPage / 1024, kAppendBatch,
      kSpillBudgetPages);
  std::printf("%-9s %-8s %10s %14s %12s %11s %11s %12s %10s %9s %9s\n",
              "config", "readers", "wall(ms)", "aggregate(p/s)",
              "append(p/s)", "cpu-p50(us)", "cpu-p99(us)", "wall-p99(us)",
              "lockwaits", "parks", "spilled");

  std::FILE* json = nullptr;
  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    json = std::fopen(path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for JSON output\n", path);
      return 1;
    }
    std::fprintf(json, "[\n");
  }

  double resident_single_aggregate = 0;
  double resident_16_aggregate = 0;
  int64_t resident_single_p99 = 0;
  int64_t resident_32_p99 = 0;
  bool all_ok = true;
  bool first = true;
  MetricsSnapshot last_snap;
  for (bool spill : {false, true}) {
    for (std::size_t readers : fan_outs) {
      CellResult r = RunCell(pages, readers, spill);
      all_ok = all_ok && r.ok;
      last_snap = r.snap;
      const char* config = spill ? "spill" : "resident";
      if (!spill) {
        if (readers == 1) {
          resident_single_aggregate = r.aggregate_pages_per_sec;
          resident_single_p99 = r.append_p99_us;
        }
        if (readers == 16) resident_16_aggregate = r.aggregate_pages_per_sec;
        if (readers == 32) resident_32_p99 = r.append_p99_us;
      }
      std::printf(
          "%-9s %-8zu %10.1f %14.0f %12.0f %11lld %11lld %12lld %10lld "
          "%9lld %9lld\n",
          config, readers, r.wall_ms, r.aggregate_pages_per_sec,
          r.producer_pages_per_sec, static_cast<long long>(r.append_p50_us),
          static_cast<long long>(r.append_p99_us),
          static_cast<long long>(r.append_wall_p99_us),
          static_cast<long long>(r.lock_waits),
          static_cast<long long>(r.parks),
          static_cast<long long>(r.spilled));
      if (json != nullptr) {
        std::fprintf(
            json,
            "%s  {\"config\": \"%s\", \"readers\": %zu, \"pages\": %zu, "
            "\"append_batch\": %zu, \"wall_ms\": %.3f, "
            "\"aggregate_pages_per_sec\": %.0f, "
            "\"producer_pages_per_sec\": %.0f, "
            "\"append_cpu_p50_us\": %lld, \"append_cpu_p99_us\": %lld, "
            "\"append_wall_p99_us\": %lld, \"lock_waits\": %lld, "
            "\"reader_parks\": %lld, \"pages_spilled\": %lld}",
            first ? "" : ",\n", config, readers, pages, kAppendBatch,
            r.wall_ms, r.aggregate_pages_per_sec, r.producer_pages_per_sec,
            static_cast<long long>(r.append_p50_us),
            static_cast<long long>(r.append_p99_us),
            static_cast<long long>(r.append_wall_p99_us),
            static_cast<long long>(r.lock_waits),
            static_cast<long long>(r.parks),
            static_cast<long long>(r.spilled));
        first = false;
      }
    }
  }
  // Admin-server perturbation gate: the 16-reader resident cell with a
  // live /metrics endpoint scraped at 10 Hz must hold >= 95% of the
  // server-off aggregate (best of 3 each — the cells are wall-clock
  // measurements and CI hosts are noisy).
  double scrape_off_aggregate = 0;
  double scrape_on_aggregate = 0;
  for (int rep = 0; rep < 3; ++rep) {
    CellResult off = RunCell(pages, 16, /*spill=*/false, /*scrape=*/false);
    CellResult on = RunCell(pages, 16, /*spill=*/false, /*scrape=*/true);
    all_ok = all_ok && off.ok && on.ok;
    scrape_off_aggregate =
        std::max(scrape_off_aggregate, off.aggregate_pages_per_sec);
    scrape_on_aggregate =
        std::max(scrape_on_aggregate, on.aggregate_pages_per_sec);
  }
  const double scrape_ratio = scrape_off_aggregate > 0
                                  ? scrape_on_aggregate / scrape_off_aggregate
                                  : 0;
  std::printf(
      "\nadmin scrape delta (16 readers, resident, 10 Hz /metrics): "
      "off=%.0f p/s, on=%.0f p/s, ratio=%.3f (gate: >= 0.95)\n",
      scrape_off_aggregate, scrape_on_aggregate, scrape_ratio);
  if (json != nullptr) {
    std::fprintf(json,
                 ",\n  {\"config\": \"scrape_gate\", \"readers\": 16, "
                 "\"scrape_off_pages_per_sec\": %.0f, "
                 "\"scrape_on_pages_per_sec\": %.0f, "
                 "\"admin_scrape_ratio\": %.4f}",
                 scrape_off_aggregate, scrape_on_aggregate, scrape_ratio);
  }

  if (json != nullptr) {
    JsonMetricsRow(json, &first, last_snap);
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }

  // The scaling acceptance gates (resident config): fan-out must be a
  // throughput multiplier, and the producer must not pay for it.
  const double scale = resident_single_aggregate > 0
                           ? resident_16_aggregate / resident_single_aggregate
                           : 0;
  const double p99_ratio =
      resident_single_p99 > 0
          ? static_cast<double>(resident_32_p99) /
                static_cast<double>(resident_single_p99)
          : 0;
  std::printf(
      "\n16-reader aggregate = %.2fx the 1-reader aggregate (gate: >= 4x)\n"
      "32-reader append p99 = %.2fx the 1-reader p99 (gate: <= 2x)\n",
      scale, p99_ratio);
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a reader missed pages or a put failed\n");
    return 1;
  }
  if (scale < 4.0) {
    std::fprintf(stderr,
                 "FAIL: fan-out did not scale (readers serialized on the "
                 "sharing hot path)\n");
    return 1;
  }
  if (resident_single_p99 > 0 && p99_ratio > 2.0) {
    std::fprintf(stderr,
                 "FAIL: producer append p99 degraded more than 2x at 32 "
                 "readers\n");
    return 1;
  }
  if (scrape_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: a 10 Hz /metrics scrape cost the 16-reader cell "
                 "more than 5%% aggregate throughput\n");
    return 1;
  }
  std::printf(
      "\nExpected shape: aggregate(p/s) grows with fan-out (readers share\n"
      "references lock-free instead of serializing on the list mutex) and\n"
      "append p50/p99 stay flat (per-reader parking: the producer wakes\n"
      "only parked readers, and batched appends amortize the sweep).\n"
      "The spill config pays governor rebalancing per append; its curve\n"
      "sits lower but keeps the same shape.\n");
  return 0;
}

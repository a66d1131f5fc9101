// Ablation H: the async I/O scheduler — io_threads x read latency x
// IO budget, on the disk-resident spill regime.
//
// PR 2's spill tier made disk-resident SP *correct* but not schedulable:
// spill writes ran synchronously inside the producer's Append path and
// fault-back reads had no latency model or budget. The IoScheduler moves
// both onto prioritized worker threads (scan-prefetch > fault-back >
// spill-write) with per-class token-bucket budgets. This bench sweeps the
// scheduler's three knobs on a stalled-reader spill workload (the regime
// the paper measures on its 15kRPM array): a pull channel with a small
// memory budget, a producer that appends at memory speed, and a stalled
// reader that then drains everything through fault-back.
//
// Reported per cell: producer append wall (the sharing fast path — must
// stay flat as I/O gets slower), stalled-reader drain wall (pays the
// modeled read latency), pages spilled / faulted back, scheduler queue
// high-water mark, and token-bucket stall time.
//
// Expected shape: append wall is independent of the disk model and the
// budget (writes are async and bounded by the in-flight window, never
// the producer). Drain wall grows with read_latency_micros and shrinks
// only modestly with threads (a single reader's fault-backs are mostly
// sequential; one-slot readahead overlaps them with consumption).
// A nonzero IO budget adds io.stall_micros without touching append wall.
//
// SHARING_BENCH_SF scales the page count; SHARING_BENCH_JSON=<path> also
// emits the sweep as JSON (ci/verify.sh records BENCH_io.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "qpipe/sharing_channel.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

constexpr std::size_t kRowWidth = 64;
constexpr std::size_t kRowsPerPage = 128;  // 8 KiB of row bytes per page
constexpr std::size_t kBudgetPages = 32;
constexpr uint32_t kWriteLatencyMicros = 500;

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

struct CellResult {
  double append_ms = 0;
  double drain_ms = 0;
  int64_t spilled = 0;
  int64_t unspills = 0;
  int64_t stall_micros = 0;
  int64_t queue_hwm = 0;
  MetricsSnapshot snap;  // the cell's full registry (JsonMetricsRow)
};

/// One sweep cell: produce `pages` through a pull channel under a
/// `kBudgetPages` memory budget with a fully stalled reader, then drain
/// the reader through fault-back. The scheduler runs `threads` workers
/// with a `budget_mib` per-class budget; the spill store charges
/// `read_latency` on fault-backs and kWriteLatencyMicros on writes.
CellResult RunCell(std::size_t pages, std::size_t threads,
                   uint32_t read_latency, std::size_t budget_mib) {
  MetricsRegistry metrics;
  IoScheduler::Options iopts;
  iopts.threads = threads;
  iopts.budget_mib_per_sec = budget_mib;
  iopts.metrics = &metrics;
  auto scheduler = std::make_shared<IoScheduler>(iopts);

  SpBudgetGovernor::Options gopts;
  gopts.budget_pages = kBudgetPages;
  gopts.read_latency_micros = read_latency;
  gopts.write_latency_micros = kWriteLatencyMicros;
  gopts.scheduler = scheduler;
  gopts.metrics = &metrics;

  SharingChannelOptions options;
  options.metrics = &metrics;
  options.governor = SpBudgetGovernor::Create(std::move(gopts));
  auto governor = options.governor;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  auto stalled = channel->AttachReader();

  CellResult result;
  {
    Stopwatch append;
    for (std::size_t i = 0; i < pages; ++i) {
      channel->Put(MakePage(static_cast<int64_t>(i)));
      host->Next();
    }
    result.append_ms = append.ElapsedSeconds() * 1e3;
  }
  channel->Close(Status::OK());
  while (host->Next() != nullptr) {
  }
  // Model the paper's regime where the laggard returns much later: let
  // the background spill writes land (the producer finished at memory
  // speed long before them) so the drain below actually faults back.
  // Bounded, and stops when the store latches unusable (a failed store
  // never re-kicks, so excess would stay nonzero forever).
  for (int spin = 0; spin < 30000 &&
                     (governor->SpillsInFlight() > 0 ||
                      (governor->usable() && governor->ExcessPages() > 0));
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    Stopwatch drain;
    while (stalled->Next() != nullptr) {
    }
    result.drain_ms = drain.ElapsedSeconds() * 1e3;
  }
  // Queued jobs keep the governor (and through it the scheduler) alive;
  // an explicit Shutdown drops them so the cell tears down cleanly and
  // no worker outlives this scope's metrics registry.
  scheduler->Shutdown();

  MetricsSnapshot snap = metrics.Snapshot();
  result.spilled = snap[metrics::kSpPagesSpilled];
  result.unspills = snap[metrics::kSpUnspillReads];
  result.stall_micros = snap[metrics::kIoStallMicros];
  result.queue_hwm = snap[std::string(metrics::kIoQueueDepth) + ".hwm"];
  result.snap = std::move(snap);
  return result;
}

}  // namespace

int main() {
  const double sf = ScaleFactor(1.0);
  const std::size_t pages =
      std::max<std::size_t>(64, static_cast<std::size_t>(1024 * sf));

  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::vector<uint32_t> read_latencies = {0, 200};
  const std::vector<std::size_t> budgets_mib = {0, 2};

  PrintHeader("Ablation H: async I/O scheduler (threads x read lat x budget)");
  std::printf(
      "pages=%zu (%zu KiB each), SP budget=%zu pages, spill write "
      "latency=%uus;\nstalled reader drains via fault-back after the "
      "producer closes.\n\n",
      pages, kRowWidth * kRowsPerPage / 1024, kBudgetPages,
      kWriteLatencyMicros);
  std::printf("%-8s %-10s %-10s %11s %10s %9s %9s %12s %10s\n", "threads",
              "readlat", "budgetMiB", "append(ms)", "drain(ms)", "spilled",
              "unspills", "stall(us)", "queue.hwm");

  std::FILE* json = nullptr;
  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    json = std::fopen(path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for JSON output\n", path);
      return 1;
    }
    std::fprintf(json, "[\n");
  }

  bool first = true;
  MetricsSnapshot last_snap;
  for (std::size_t threads : thread_counts) {
    for (uint32_t read_latency : read_latencies) {
      for (std::size_t budget_mib : budgets_mib) {
        CellResult r = RunCell(pages, threads, read_latency, budget_mib);
        last_snap = r.snap;
        std::string budget_label =
            budget_mib == 0 ? "unlimited" : std::to_string(budget_mib);
        std::printf("%-8zu %-10u %-10s %11.1f %10.1f %9lld %9lld %12lld %10lld\n",
                    threads, read_latency, budget_label.c_str(), r.append_ms,
                    r.drain_ms, static_cast<long long>(r.spilled),
                    static_cast<long long>(r.unspills),
                    static_cast<long long>(r.stall_micros),
                    static_cast<long long>(r.queue_hwm));
        if (json != nullptr) {
          std::fprintf(
              json,
              "%s  {\"io_threads\": %zu, \"read_latency_micros\": %u, "
              "\"budget_mib_per_sec\": %zu, \"pages\": %zu, "
              "\"write_latency_micros\": %u, \"append_ms\": %.3f, "
              "\"drain_ms\": %.3f, \"pages_spilled\": %lld, "
              "\"unspill_reads\": %lld, \"stall_micros\": %lld, "
              "\"queue_depth_hwm\": %lld}",
              first ? "" : ",\n", threads, read_latency, budget_mib, pages,
              kWriteLatencyMicros, r.append_ms, r.drain_ms,
              static_cast<long long>(r.spilled),
              static_cast<long long>(r.unspills),
              static_cast<long long>(r.stall_micros),
              static_cast<long long>(r.queue_hwm));
          first = false;
        }
      }
    }
  }
  if (json != nullptr) {
    JsonMetricsRow(json, &first, last_snap);
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }

  std::printf(
      "\nExpected shape: append(ms) is flat across every column — spill\n"
      "writes are asynchronous, so the producer never pays the write\n"
      "latency or the IO budget. drain(ms) grows with the read latency\n"
      "(fault-backs pay the model on the scheduler workers) and a finite\n"
      "budget shows up as stall(us), not as producer time.\n");
  return 0;
}

// Ablation H: the async I/O scheduler — io_threads x read latency, on
// the disk-resident spill regime — and the accuracy of the disk model
// that regime rests on.
//
// The IoScheduler runs spill writes and fault-back reads on prioritized
// worker threads (scan-prefetch > fault-back > spill-write), off the
// producer's Append path. This bench sweeps its knobs on a stalled-reader
// spill workload (the regime the paper measures on its 15kRPM array): a
// pull channel with a small memory budget, a producer that appends at
// memory speed, and a stalled reader that then drains everything through
// fault-back.
//
// Reported per cell: producer append wall (the sharing fast path — must
// stay flat as I/O gets slower), stalled-reader drain wall (pays the
// modeled read latency), pages spilled / faulted back, and the scheduler
// queue high-water mark.
//
// Expected shape: append wall is independent of the disk model (writes
// are async and bounded by the in-flight window, never the producer).
// Drain wall grows with read_latency_micros and shrinks only modestly
// with threads (a single reader's fault-backs are mostly sequential;
// one-slot readahead overlaps them with consumption).
//
// Model accuracy: DiskManager sleeps for each modeled read. For two
// models (the end-to-end benchmark's 55us + 15000 MiB/s, whose transfer
// term truncates to 0us for an 8 KiB page, and this sweep's 200us) the
// bench times single-threaded ReadPage calls and reports modeled against
// observed p50/p99. The rows are recorded, not gated: a wall-clock bound
// flips on a shared host.
//
// SHARING_BENCH_SF scales the page count; SHARING_BENCH_JSON=<path> also
// emits the sweep as JSON (ci/verify.sh records BENCH_io.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "qpipe/sharing_channel.h"
#include "storage/disk_manager.h"

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
  int64_t queue_hwm = 0;
  MetricsSnapshot snap;  // the cell's full registry (JsonMetricsRow)
};

/// One sweep cell: produce `pages` through a pull channel under a
/// `kBudgetPages` memory budget with a fully stalled reader, then drain
/// the reader through fault-back. The scheduler runs `threads` workers;
/// the spill store charges `read_latency` on fault-backs and
/// kWriteLatencyMicros on writes.
CellResult RunCell(std::size_t pages, std::size_t threads,
                   uint32_t read_latency) {
  MetricsRegistry metrics;
  IoScheduler::Options iopts;
  iopts.threads = threads;
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
  result.queue_hwm = snap[std::string(metrics::kIoQueueDepth) + ".hwm"];
  result.snap = std::move(snap);
  return result;
}

/// One disk model's accuracy: what DiskManager charges for a page read,
/// against what `reads` timed ReadPage calls on one thread observed.
struct ModelAccuracy {
  uint64_t modeled_micros = 0;
  int64_t observed_p50_micros = 0;
  int64_t observed_p99_micros = 0;
};

ModelAccuracy MeasureModel(uint32_t latency_micros, uint32_t bandwidth_mib,
                           std::size_t reads) {
  MetricsRegistry metrics;
  DiskOptions dopts;
  dopts.read_latency_micros = latency_micros;
  dopts.read_bandwidth_mib = bandwidth_mib;
  DiskManager disk(dopts, &metrics);
  const PageId id = disk.AllocatePage();
  std::vector<uint8_t> buf(kPageBytes);

  ModelAccuracy result;
  // The model's own arithmetic: seek plus whole microseconds of transfer.
  result.modeled_micros = latency_micros;
  if (bandwidth_mib > 0) {
    result.modeled_micros += kPageBytes * 1000000ull /
                             (uint64_t{bandwidth_mib} * 1024ull * 1024ull);
  }
  std::vector<int64_t> observed;
  observed.reserve(reads);
  for (std::size_t i = 0; i < reads; ++i) {
    Stopwatch read;
    if (!disk.ReadPage(id, buf.data()).ok()) {
      std::fprintf(stderr, "model read failed\n");
      std::exit(1);
    }
    observed.push_back(read.ElapsedMicros());
  }
  std::sort(observed.begin(), observed.end());
  result.observed_p50_micros = observed[observed.size() / 2];
  result.observed_p99_micros = observed[observed.size() * 99 / 100];
  return result;
}

}  // namespace

int main() {
  const double sf = ScaleFactor(1.0);
  const std::size_t pages =
      std::max<std::size_t>(64, static_cast<std::size_t>(1024 * sf));

  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::vector<uint32_t> read_latencies = {0, 200};

  PrintHeader("Ablation H: async I/O scheduler (threads x read latency)");
  std::printf(
      "pages=%zu (%zu KiB each), SP budget=%zu pages, spill write "
      "latency=%uus;\nstalled reader drains via fault-back after the "
      "producer closes.\n\n",
      pages, kRowWidth * kRowsPerPage / 1024, kBudgetPages,
      kWriteLatencyMicros);
  std::printf("%-8s %-10s %11s %10s %9s %9s %10s\n", "threads", "readlat",
              "append(ms)", "drain(ms)", "spilled", "unspills", "queue.hwm");

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
      CellResult r = RunCell(pages, threads, read_latency);
      last_snap = r.snap;
      std::printf("%-8zu %-10u %11.1f %10.1f %9lld %9lld %10lld\n", threads,
                  read_latency, r.append_ms, r.drain_ms,
                  static_cast<long long>(r.spilled),
                  static_cast<long long>(r.unspills),
                  static_cast<long long>(r.queue_hwm));
      if (json != nullptr) {
        std::fprintf(
            json,
            "%s  {\"io_threads\": %zu, \"read_latency_micros\": %u, "
            "\"pages\": %zu, \"write_latency_micros\": %u, "
            "\"append_ms\": %.3f, \"drain_ms\": %.3f, "
            "\"pages_spilled\": %lld, \"unspill_reads\": %lld, "
            "\"queue_depth_hwm\": %lld}",
            first ? "" : ",\n", threads, read_latency, pages,
            kWriteLatencyMicros, r.append_ms, r.drain_ms,
            static_cast<long long>(r.spilled),
            static_cast<long long>(r.unspills),
            static_cast<long long>(r.queue_hwm));
        first = false;
      }
    }
  }

  struct Model {
    const char* name;
    uint32_t latency_micros;
    uint32_t bandwidth_mib;
  };
  const Model models[] = {{"perfbench", 55, 15000}, {"sweep", 200, 0}};
  constexpr std::size_t kModelReads = 500;
  std::printf("\nDisk model accuracy (%zu single-threaded ReadPage calls):\n",
              kModelReads);
  std::printf("%-10s %-16s %12s %12s %12s %10s\n", "model", "latency+bw",
              "modeled(us)", "p50(us)", "p99(us)", "p50/model");
  for (const Model& model : models) {
    const ModelAccuracy m =
        MeasureModel(model.latency_micros, model.bandwidth_mib, kModelReads);
    const double p50_ratio = static_cast<double>(m.observed_p50_micros) /
                             static_cast<double>(m.modeled_micros);
    const std::string label = std::to_string(model.latency_micros) + "us+" +
                              std::to_string(model.bandwidth_mib) + "MiB/s";
    std::printf("%-10s %-16s %12llu %12lld %12lld %10.2f\n", model.name,
                label.c_str(),
                static_cast<unsigned long long>(m.modeled_micros),
                static_cast<long long>(m.observed_p50_micros),
                static_cast<long long>(m.observed_p99_micros), p50_ratio);
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s  {\"model\": \"%s\", \"read_latency_micros\": %u, "
          "\"read_bandwidth_mib\": %u, \"modeled_read_micros\": %llu, "
          "\"observed_read_p50_micros\": %lld, "
          "\"observed_read_p99_micros\": %lld, \"read_p50_ratio\": %.3f}",
          first ? "" : ",\n", model.name, model.latency_micros,
          model.bandwidth_mib,
          static_cast<unsigned long long>(m.modeled_micros),
          static_cast<long long>(m.observed_p50_micros),
          static_cast<long long>(m.observed_p99_micros), p50_ratio);
      first = false;
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
      "latency. drain(ms) grows with the read latency (fault-backs pay\n"
      "the model on the scheduler workers). p50/model stays near 1: a\n"
      "modeled read sleeps for its latency and wakes on time.\n");
  return 0;
}

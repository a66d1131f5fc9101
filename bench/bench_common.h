// Shared helpers for the scenario benchmark binaries.
//
// Each bench regenerates one table/figure of the paper's demo (see
// DESIGN.md's per-experiment index): it prints the same x-axis and series
// the demo GUI plots, plus the auxiliary measurements (CPU time, SP
// opportunities, admissions). Absolute numbers differ from the paper's
// testbed; the *shape* is the reproduction target.

#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "common/metrics_format.h"
#include "common/stopwatch.h"
#include "core/sharing_engine.h"
#include "workload/driver.h"
#include "workload/ssb.h"
#include "workload/tpch.h"

namespace sharing::bench {

/// Scale factors tuned so every bench binary completes on a laptop-class
/// container in tens of seconds. Override via environment variables
/// SHARING_BENCH_SF / SHARING_BENCH_SECONDS for larger runs.
inline double ScaleFactor(double fallback) {
  if (const char* env = std::getenv("SHARING_BENCH_SF")) {
    return std::atof(env);
  }
  return fallback;
}

inline double WindowSeconds(double fallback) {
  if (const char* env = std::getenv("SHARING_BENCH_SECONDS")) {
    return std::atof(env);
  }
  return fallback;
}

/// Memory-resident database (frames cover the data, no latency model).
inline std::unique_ptr<Database> MakeMemoryDb(std::size_t frames = 65536) {
  DatabaseOptions options;
  options.buffer_pool_frames = frames;
  return std::make_unique<Database>(options);
}

/// Disk-resident database: small frame budget + rotational latency model.
inline std::unique_ptr<Database> MakeDiskDb(std::size_t frames = 512) {
  DatabaseOptions options;
  options.buffer_pool_frames = frames;
  auto db = std::make_unique<Database>(options);
  db->SetDiskResident();
  return db;
}

inline EngineConfig SsbEngineConfig() {
  EngineConfig config;
  config.fact_table = "lineorder";
  config.cjoin_levels = ssb::PipelineLevels();
  config.cjoin.max_queries = 64;
  return config;
}

/// Descends through unary nodes (aggregate/sort) to the star-join subtree —
/// the part of a template plan that CJOIN evaluates.
inline PlanNodeRef StarJoinRootOf(PlanNodeRef plan) {
  while (plan && plan->kind() != PlanKind::kJoin) {
    if (plan->children().empty()) return nullptr;
    plan = plan->children()[0];
  }
  return plan;
}

/// Appends one {"part": "metrics", "metrics": {...}} row to an open
/// bench JSON array: the run's metrics-registry snapshot (counters,
/// gauges, and the histogram count/p50/p95/p99 views), so every
/// BENCH_*.json records the engine internals behind its headline
/// numbers. The object is the shared MetricsJsonObject rendering.
inline void JsonMetricsRow(std::FILE* json, bool* first,
                           const MetricsSnapshot& snapshot) {
  std::fprintf(json, "%s  {\"part\": \"metrics\", \"metrics\": %s}",
               *first ? "" : ",\n", MetricsJsonObject(snapshot).c_str());
  *first = false;
}

/// Share of the scan stage's packets served as SP satellites (attached to
/// an identical in-flight scan instead of executing) between two
/// snapshots of its stats: the tscan satellite share.
inline double ScanSatelliteShare(const StageStats& before,
                                 const StageStats& after) {
  const int64_t submitted = after.packets_submitted - before.packets_submitted;
  if (submitted <= 0) return 0.0;
  return static_cast<double>(after.sp_hits - before.sp_hits) /
         static_cast<double>(submitted);
}

inline void PrintHeader(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace sharing::bench

// EngineInspector: the read-only bundle of engine state feeds that the
// admin server's deep endpoints and the stall watchdog consume.
//
// The inspector is a plain struct of callbacks so the server subsystem
// never holds typed references into the engine: QPipeEngine builds one
// over its own accessors (live-query registry, per-stage channel
// registries, cost models, IoScheduler queues), and tests build
// synthetic ones to drive the watchdog through fault scenarios the
// real engine would need minutes to reach. Every callback must be
// thread-safe and ride *existing* synchronization — the scrape path
// must add no locking to the sharing hot path (see
// SharedPagesList::View, Stage::ChannelsSnapshot).

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "exec/explain.h"
#include "qpipe/engine.h"
#include "qpipe/stage.h"

namespace sharing {

/// One stage's per-signature cost-model view, tagged with the stage.
struct StageCostModelInfo {
  std::string stage;
  std::vector<SharingCostModel::SignatureSnapshot> signatures;
};

struct EngineInspector {
  /// The engine's registry (never null for a usable inspector).
  MetricsRegistry* metrics = nullptr;

  /// In-flight queries (submitted, not yet finished/abandoned).
  std::function<std::vector<QPipeEngine::LiveQueryInfo>()> queries;

  /// Every live sharing session across all stages, each as its one
  /// SessionView (shared_pages_list.h) tagged with stage and signature.
  std::function<std::vector<Stage::ChannelSnapshot>()> channels;

  /// Per-stage cost-model snapshots.
  std::function<std::vector<StageCostModelInfo>()> cost_models;

  /// The explain report for one in-flight query (nullopt: unknown id).
  std::function<std::optional<QueryExplain>(uint64_t)> explain;

  /// Per-priority-class I/O queue depths, indexed by IoPriority; empty
  /// when the engine runs without an IoScheduler.
  std::function<std::vector<std::size_t>()> io_queue_depths;

  /// The SP spill tier's health: OK while usable (or not configured),
  /// otherwise the Status that latched it off
  /// (SpBudgetGovernor::DisabledReason) — surfaced as a /healthz detail.
  std::function<Status()> spill_health;
};

}  // namespace sharing

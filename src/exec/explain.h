// Sharing explain: the per-query record of *why* the engine did what it
// did — the admission verdict each stage took for the query's packets,
// whether the query hosted a sharing session or rode one as a
// satellite, which transport moved its pages, how many of those pages
// were served from a host (SPL references or push copies) instead of
// executed for, and where the wall-clock went.
//
// The paper's demo GUI answers these questions live (SP opportunities
// exploited, pages copied vs shared, per-stage CPU time); this module
// answers them per finished query: ExplainState accumulates facts while
// the query runs (stages append an admission record per packet, workers
// add RunPacket wall time), and Build() resolves it into an immutable
// QueryExplain that QueryHandle::Collect attaches to the ResultSet.
// Page counts are read lazily at Build time through weak_ptrs to the
// query's readers — explain must never extend a reader's lifetime (a
// pinned SplReader would block the host's page reclamation).

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/page_stream.h"

namespace sharing {

/// The immutable per-query report. All times in microseconds.
struct QueryExplain {
  /// One packet submission's admission outcome at one stage.
  struct StageRecord {
    /// What the packet became at admission.
    enum class Role : uint8_t {
      kUnshared,   // executed alone (no sharing channel)
      kHost,       // executed and hosted a sharing channel
      kSatellite,  // attached to an in-flight host; executed nothing
    };

    // Fields are ordered widest first, so the record packs into 56 bytes
    // on LP64 (completed queries keep theirs). Every string is static or
    // interned for the process (Trace::InternString).
    const char* stage = "";            // "TSCAN", "JOIN", ...
    const char* transport = "none";    // "none" | "push" | "pull"
    /// Who made the call: "static" (configured mode), "cold" (popularity
    /// gate), "model" (per-signature cost model, its thin-history prior
    /// included), "attach" (an in-flight host existed — free win),
    /// "rerun" (a satellite re-dispatched unshared after its host died).
    const char* decided_by = "static";
    uint64_t signature = 0;  // plan-subtree signature (correlation id)

    /// RunPacket wall time (0 for satellites — that is the work SP
    /// saved this query).
    int64_t run_micros = 0;

    /// Pages this query's reader consumed from the packet's output.
    int64_t pages_delivered = 0;

    /// Model decisions only; 0 with decided_by "model" = the prior.
    float confidence = 0;

    Role role = Role::kUnshared;
    bool spill_preferred = false;  // model chose pull for the spill tier

    /// Of the delivered pages, those served from a host's SPL: all of a
    /// pull satellite's.
    int64_t pages_shared() const { return SatellitePages("pull"); }
    /// Of the delivered pages, those deep-copied into this query's FIFO
    /// by a push host: all of a push satellite's.
    int64_t pages_copied() const { return SatellitePages("push"); }

   private:
    int64_t SatellitePages(const char* via) const {
      return role == Role::kSatellite && std::strcmp(transport, via) == 0
                 ? pages_delivered
                 : 0;
    }
  };
  static_assert(sizeof(void*) != 8 || sizeof(StageRecord) == 56,
                "StageRecord is kept per completed query; keep it packed");

  uint64_t query_id = 0;
  /// Submit -> Collect-finished wall time (0 if never collected).
  int64_t total_micros = 0;
  std::vector<StageRecord> stages;

  /// One JSON object (single line, no trailing newline).
  std::string ToJson() const;

  /// Compact human-readable dump, one line per stage record.
  std::string ToString() const;
};

const char* ExplainRoleToString(QueryExplain::StageRecord::Role role);

/// The mutable accumulator carried by ExecContext while the query runs.
/// Thread-safe: stages and pool workers append concurrently.
class ExplainState {
 public:
  /// A StageRecord in the making; `source` is the reader whose
  /// PagesDelivered() becomes the record's page counts at Build time
  /// (weak: explain must not pin SPL readers).
  struct PendingStage {
    const char* stage = "";  // static or interned
    uint64_t signature = 0;
    QueryExplain::StageRecord::Role role =
        QueryExplain::StageRecord::Role::kUnshared;
    const char* transport = "none";
    const char* decided_by = "static";
    bool spill_preferred = false;
    double confidence = 0;
    std::weak_ptr<PageSource> source;
  };

  ExplainState();

  /// Appends an admission record; returns its index for AddRunMicros.
  std::size_t AddStage(PendingStage record);

  /// Charges RunPacket wall time to the record at `index`.
  void AddRunMicros(std::size_t index, int64_t micros);

  /// Stamps the query's total wall time (first call wins).
  void MarkFinished();

  /// Monotonic micros when the query was submitted.
  int64_t start_micros() const { return start_micros_; }

  /// Submit -> MarkFinished (0 until finished).
  int64_t total_micros() const;

  /// Resolves the accumulated state (and the weak readers' page counts)
  /// into an immutable report.
  QueryExplain Build(uint64_t query_id) const;

 private:
  const int64_t start_micros_;
  mutable std::mutex mutex_;
  std::vector<PendingStage> pending_;
  std::vector<int64_t> run_micros_;
  int64_t total_micros_ = 0;
};

using ExplainStateRef = std::shared_ptr<ExplainState>;

}  // namespace sharing

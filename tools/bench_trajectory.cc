// bench_trajectory: folds every BENCH_*.json sweep the CI pipeline
// emits into one BENCH_trajectory.json keyed by the headline numbers a
// human (or a regression diff) actually tracks across PRs:
//
//   contention: 16-reader resident aggregate throughput, 32-reader
//               producer append CPU p99, admin-scrape perturbation ratio
//   adaptive:   skinny/fat cost-model divergence (the per-signature
//               policy's reason to exist), adaptive-vs-best-fixed wall
//   io:         worst drain wall under a throttled budget, stall micros
//   spill:      bounded-memory proof (retained high-water vs budget)
//   kernels:    operator kernel rows/s (scan+filter, join build/probe,
//               hash aggregate on Q1 and on a high-cardinality key,
//               one CJOIN level's probe)
//   scenario2:  64-client qps of sp-pull and gqp, and whether gqp >=
//               sp-pull there (the paper's Scenario II claim; 1 = yes)
//
//   ./bench_trajectory <out.json> <bench1.json> [bench2.json ...]
//
// Input files are recognized by basename (BENCH_contention.json, etc.);
// unknown files are skipped with a note, missing headline fields leave
// their key absent rather than failing — the trajectory is additive
// across PRs that add new sweeps. Standalone: hand-rolled scanning over
// the benches' flat one-object-per-line JSON, no engine dependency.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Extracts `"key": <number>` from a flat JSON object row. Returns
/// false when the key is absent.
bool NumField(const std::string& row, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = row.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < row.size() && row[pos] == ' ') ++pos;
  char* end = nullptr;
  const double v = std::strtod(row.c_str() + pos, &end);
  if (end == row.c_str() + pos) return false;
  *out = v;
  return true;
}

bool StrField(const std::string& row, const std::string& key,
              std::string* out) {
  const std::string needle = "\"" + key + "\": \"";
  std::size_t pos = row.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  const std::size_t close = row.find('"', pos);
  if (close == std::string::npos) return false;
  *out = row.substr(pos, close - pos);
  return true;
}

/// Splits a bench file into its top-level `{...}` rows (the benches emit
/// one object per line inside one array; this tolerates reflowing).
std::vector<std::string> Rows(const std::string& body) {
  std::vector<std::string> rows;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) rows.push_back(body.substr(start, i - start + 1));
    }
  }
  return rows;
}

std::string Slurp(const char* path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

using Headline = std::map<std::string, double>;

void FoldContention(const std::vector<std::string>& rows, Headline* out) {
  for (const std::string& row : rows) {
    std::string config;
    double readers = 0;
    StrField(row, "config", &config);
    NumField(row, "readers", &readers);
    double v = 0;
    if (config == "resident" && readers == 16 &&
        NumField(row, "aggregate_pages_per_sec", &v)) {
      (*out)["contention_resident16_aggregate_pages_per_sec"] = v;
    }
    if (config == "resident" && readers == 32 &&
        NumField(row, "append_cpu_p99_us", &v)) {
      (*out)["contention_resident32_append_cpu_p99_us"] = v;
    }
    if (config == "scrape_gate" && NumField(row, "admin_scrape_ratio", &v)) {
      (*out)["contention_admin_scrape_ratio"] = v;
    }
  }
}

void FoldAdaptive(const std::vector<std::string>& rows, Headline* out) {
  double best_fixed = 0;
  bool have_fixed = false;
  for (const std::string& row : rows) {
    std::string part, mode, signature;
    StrField(row, "part", &part);
    double v = 0;
    if (part == "hot_cold" && StrField(row, "mode", &mode) &&
        NumField(row, "wall_ms", &v)) {
      if (mode == "adaptive") {
        (*out)["adaptive_hot_cold_wall_ms"] = v;
      } else if (mode != "off") {
        if (!have_fixed || v < best_fixed) best_fixed = v;
        have_fixed = true;
      }
    }
    if (part == "heterogeneous" && StrField(row, "signature", &signature)) {
      double push = 0, pull = 0;
      NumField(row, "decided_push", &push);
      NumField(row, "decided_pull", &pull);
      if (signature == "skinny") {
        (*out)["adaptive_skinny_decided_push"] = push;
      } else if (signature == "fat") {
        (*out)["adaptive_fat_decided_pull"] = pull;
      }
    }
    if (part == "heterogeneous" && row.find("\"summary\"") !=
                                       std::string::npos &&
        NumField(row, "sp_hits", &v)) {
      // Divergence headline: 1 when the model split the signatures
      // (skinny->push AND fat->pull), mirrored from "diverged".
      (*out)["adaptive_heterogeneous_diverged"] =
          row.find("\"diverged\": true") != std::string::npos ? 1 : 0;
    }
  }
  if (have_fixed) (*out)["adaptive_best_fixed_wall_ms"] = best_fixed;
}

void FoldIo(const std::vector<std::string>& rows, Headline* out) {
  double worst_drain = 0, max_stall = 0;
  for (const std::string& row : rows) {
    double v = 0;
    if (NumField(row, "drain_ms", &v) && v > worst_drain) worst_drain = v;
    if (NumField(row, "stall_micros", &v) && v > max_stall) max_stall = v;
  }
  if (worst_drain > 0) (*out)["io_worst_drain_ms"] = worst_drain;
  (*out)["io_max_stall_micros"] = max_stall;
}

void FoldSpill(const std::vector<std::string>& rows, Headline* out) {
  // Bounded-memory proof: among budgeted cells, the worst retained
  // high-water and its budget (retained_hwm should track the budget,
  // not the stream length).
  double worst_retained = 0, its_budget = 0, worst_wall = 0;
  for (const std::string& row : rows) {
    double budget = 0, retained = 0, wall = 0;
    if (!NumField(row, "budget_pages", &budget) || budget <= 0) continue;
    NumField(row, "retained_hwm", &retained);
    NumField(row, "wall_ms", &wall);
    if (retained > worst_retained) {
      worst_retained = retained;
      its_budget = budget;
    }
    if (wall > worst_wall) worst_wall = wall;
  }
  if (its_budget > 0) {
    (*out)["spill_budgeted_retained_hwm_pages"] = worst_retained;
    (*out)["spill_budgeted_retained_hwm_budget"] = its_budget;
    (*out)["spill_budgeted_worst_wall_ms"] = worst_wall;
  }
}

void FoldKernels(const std::vector<std::string>& rows, Headline* out) {
  for (const std::string& row : rows) {
    for (const char* key :
         {"scan_filter_rows_per_s", "join_build_rows_per_s",
          "join_probe_rows_per_s", "agg_q1_rows_per_s",
          "agg_high_card_rows_per_s", "cjoin_probe_rows_per_s"}) {
      double v = 0;
      if (NumField(row, key, &v)) (*out)[std::string("kernels_") + key] = v;
    }
  }
}

void FoldScenario2(const std::vector<std::string>& rows, Headline* out) {
  for (const std::string& row : rows) {
    std::string part, mode;
    StrField(row, "part", &part);
    double clients = 0, qps = 0;
    if (part == "curve" && NumField(row, "clients", &clients) &&
        clients == 64 && StrField(row, "mode", &mode) &&
        NumField(row, "qps", &qps)) {
      (*out)[mode == "gqp" ? "scenario2_c64_gqp_qps"
                           : "scenario2_c64_sp_pull_qps"] = qps;
    }
    if (part == "shape") {
      (*out)["scenario2_gqp_ge_sp_pull"] =
          row.find("\"reproduced\": true") != std::string::npos ? 1 : 0;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <out.json> <BENCH_x.json> [BENCH_y.json ...]\n",
                 argv[0]);
    return 2;
  }

  Headline headline;
  std::vector<std::string> folded;
  for (int i = 2; i < argc; ++i) {
    const std::string body = Slurp(argv[i]);
    if (body.empty()) {
      std::fprintf(stderr, "bench_trajectory: skipping unreadable %s\n",
                   argv[i]);
      continue;
    }
    const std::vector<std::string> rows = Rows(body);
    const std::string base = Basename(argv[i]);
    if (base == "BENCH_contention.json") {
      FoldContention(rows, &headline);
    } else if (base == "BENCH_adaptive.json") {
      FoldAdaptive(rows, &headline);
    } else if (base == "BENCH_io.json") {
      FoldIo(rows, &headline);
    } else if (base == "BENCH_spill.json") {
      FoldSpill(rows, &headline);
    } else if (base == "BENCH_kernels.json") {
      FoldKernels(rows, &headline);
    } else if (base == "BENCH_scenario2.json") {
      FoldScenario2(rows, &headline);
    } else {
      std::fprintf(stderr, "bench_trajectory: unrecognized %s (skipped)\n",
                   argv[i]);
      continue;
    }
    folded.push_back(base);
  }

  if (headline.empty()) {
    std::fprintf(stderr, "bench_trajectory: no headline numbers extracted\n");
    return 1;
  }

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_trajectory: cannot open %s\n", argv[1]);
    return 2;
  }
  std::fprintf(out, "{\n  \"sources\": [");
  for (std::size_t i = 0; i < folded.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", folded[i].c_str());
  }
  std::fprintf(out, "],\n  \"headline\": {\n");
  std::size_t n = 0;
  for (const auto& [key, value] : headline) {
    std::fprintf(out, "    \"%s\": %.4f%s\n", key.c_str(), value,
                 ++n < headline.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);

  std::printf("bench_trajectory: %zu headline numbers from %zu files -> %s\n",
              headline.size(), folded.size(), argv[1]);
  return 0;
}

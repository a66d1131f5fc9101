#include "exec/explain.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace sharing {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

const char* ExplainRoleToString(QueryExplain::StageRecord::Role role) {
  switch (role) {
    case QueryExplain::StageRecord::Role::kUnshared:
      return "unshared";
    case QueryExplain::StageRecord::Role::kHost:
      return "host";
    case QueryExplain::StageRecord::Role::kSatellite:
      return "satellite";
  }
  return "?";
}

std::string QueryExplain::ToJson() const {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"query_id\":%llu,\"total_micros\":%lld,\"stages\":[",
                static_cast<unsigned long long>(query_id),
                static_cast<long long>(total_micros));
  out += buf;
  bool first = true;
  for (const StageRecord& rec : stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"stage\":\"";
    AppendEscaped(&out, rec.stage);
    std::snprintf(buf, sizeof(buf), "\",\"signature\":\"0x%llx\",\"role\":\"%s\"",
                  static_cast<unsigned long long>(rec.signature),
                  ExplainRoleToString(rec.role));
    out += buf;
    out += ",\"transport\":\"";
    out += rec.transport;
    out += "\",\"decided_by\":\"";
    out += rec.decided_by;
    out += "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"spill_preferred\":%s,\"confidence\":%.3f",
                  rec.spill_preferred ? "true" : "false", rec.confidence);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"run_micros\":%lld,\"pages_delivered\":%lld",
                  static_cast<long long>(rec.run_micros),
                  static_cast<long long>(rec.pages_delivered));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\"pages_shared\":%lld,\"pages_copied\":%lld}",
                  static_cast<long long>(rec.pages_shared()),
                  static_cast<long long>(rec.pages_copied()));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string QueryExplain::ToString() const {
  std::ostringstream out;
  out << "query " << query_id << " (" << total_micros << "us)";
  for (const StageRecord& rec : stages) {
    out << "\n  " << rec.stage << " sig=0x" << std::hex << rec.signature
        << std::dec << " " << ExplainRoleToString(rec.role) << "/"
        << rec.transport << " by=" << rec.decided_by
        << " run=" << rec.run_micros << "us pages=" << rec.pages_delivered;
    if (rec.pages_shared() > 0) out << " shared=" << rec.pages_shared();
    if (rec.pages_copied() > 0) out << " copied=" << rec.pages_copied();
    if (rec.spill_preferred) out << " spill";
  }
  return out.str();
}

ExplainState::ExplainState() : start_micros_(NowMicros()) {}

std::size_t ExplainState::AddStage(PendingStage record) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(std::move(record));
  run_micros_.push_back(0);
  return pending_.size() - 1;
}

void ExplainState::AddRunMicros(std::size_t index, int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index < run_micros_.size()) run_micros_[index] += micros;
}

void ExplainState::MarkFinished() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (total_micros_ == 0) total_micros_ = NowMicros() - start_micros_;
}

int64_t ExplainState::total_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_micros_;
}

QueryExplain ExplainState::Build(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  QueryExplain explain;
  explain.query_id = query_id;
  explain.total_micros = total_micros_;
  explain.stages.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PendingStage& p = pending_[i];
    QueryExplain::StageRecord rec;
    rec.stage = p.stage;
    rec.signature = p.signature;
    rec.role = p.role;
    rec.transport = p.transport;
    rec.decided_by = p.decided_by;
    rec.spill_preferred = p.spill_preferred;
    rec.confidence = static_cast<float>(p.confidence);
    rec.run_micros = run_micros_[i];
    if (auto source = p.source.lock()) {
      rec.pages_delivered =
          static_cast<int64_t>(source->PagesDelivered());
    }
    explain.stages.push_back(std::move(rec));
  }
  return explain;
}

}  // namespace sharing

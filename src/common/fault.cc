#include "common/fault.h"

#include <cstdlib>

namespace sharing {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

Status FaultRegistry::Arm(const std::string& spec) {
  uint64_t seed = 42;
  std::unordered_map<std::string, PointState> points;

  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("fault spec entry '" + entry +
                                     "' is not <point>=<trigger>");
    }
    std::string point = entry.substr(0, eq);
    std::string trigger = entry.substr(eq + 1);

    if (point == "seed") {
      char* rest = nullptr;
      seed = std::strtoull(trigger.c_str(), &rest, 10);
      if (rest == nullptr || *rest != '\0') {
        return Status::InvalidArgument("fault spec seed '" + trigger +
                                       "' is not an integer");
      }
      continue;
    }

    PointState state;
    const std::size_t star = trigger.find('*');
    if (star != std::string::npos) {
      char* rest = nullptr;
      state.payload = std::strtoll(trigger.c_str() + star + 1, &rest, 10);
      if (rest == nullptr || *rest != '\0') {
        return Status::InvalidArgument("fault spec payload in '" + entry +
                                       "' is not an integer");
      }
      trigger = trigger.substr(0, star);
    }
    if (trigger == "once") {
      state.mode = Mode::kOnce;
    } else if (!trigger.empty() && trigger[0] == 'p') {
      state.mode = Mode::kProbability;
      char* rest = nullptr;
      state.probability = std::strtod(trigger.c_str() + 1, &rest);
      if (rest == trigger.c_str() + 1 || rest == nullptr || *rest != '\0' ||
          state.probability < 0 || state.probability > 1) {
        return Status::InvalidArgument("fault spec probability in '" + entry +
                                       "' is not in [0,1]");
      }
    } else if (!trigger.empty() && trigger[0] == 'n') {
      state.mode = Mode::kEveryNth;
      char* rest = nullptr;
      state.every_n = std::strtoull(trigger.c_str() + 1, &rest, 10);
      if (rest == nullptr || *rest != '\0' || state.every_n == 0) {
        return Status::InvalidArgument("fault spec period in '" + entry +
                                       "' is not a positive integer");
      }
    } else {
      return Status::InvalidArgument("fault spec trigger '" + trigger +
                                     "' is not p<prob>, n<N>, or once");
    }
    points[std::move(point)] = std::move(state);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Per-point deterministic streams: seed ^ hash(point) decouples the
  // points so adding one never shifts another's fire ordinals.
  for (auto& [name, state] : points) {
    state.rng = Rng(seed ^ Fnv1a(name));
  }
  points_ = std::move(points);
  seed_ = seed;
  spec_ = spec;
  armed_points_.store(static_cast<int>(points_.size()),
                      std::memory_order_relaxed);
  return Status::OK();
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  spec_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
}

FaultHit FaultRegistry::Check(const char* point) {
  if (armed_points_.load(std::memory_order_relaxed) == 0) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  if (it == points_.end()) return {};
  PointState& state = it->second;
  ++state.triggers;
  bool fire = false;
  switch (state.mode) {
    case Mode::kProbability:
      fire = state.rng.Bernoulli(state.probability);
      break;
    case Mode::kEveryNth:
      fire = state.triggers % state.every_n == 0;
      break;
    case Mode::kOnce:
      fire = state.triggers == 1;
      break;
  }
  if (!fire) return {};
  ++state.fires;
  if (injected_ != nullptr) injected_->Increment();
  return FaultHit{true, state.payload};
}

void FaultRegistry::BindMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  bound_metrics_ = metrics;
  injected_ = metrics->GetCounter(metrics::kFaultInjected);
}

void FaultRegistry::UnbindMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bound_metrics_ != metrics) return;
  bound_metrics_ = &MetricsRegistry::Global();
  injected_ = bound_metrics_->GetCounter(metrics::kFaultInjected);
}

std::string FaultRegistry::DescribeJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"armed\":";
  out += points_.empty() ? "false" : "true";
  out += ",\"seed\":" + std::to_string(seed_);
  out += ",\"spec\":\"";
  for (char c : spec_) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\",\"points\":[";
  bool first = true;
  for (const auto& [name, state] : points_) {
    if (!first) out += ',';
    first = false;
    out += "{\"point\":\"" + name + "\",\"mode\":\"";
    switch (state.mode) {
      case Mode::kProbability:
        out += "p\",\"arg\":" + std::to_string(state.probability);
        break;
      case Mode::kEveryNth:
        out += "n\",\"arg\":" + std::to_string(state.every_n);
        break;
      case Mode::kOnce:
        out += "once\",\"arg\":1";
        break;
    }
    out += ",\"payload\":" + std::to_string(state.payload);
    out += ",\"triggers\":" + std::to_string(state.triggers);
    out += ",\"fires\":" + std::to_string(state.fires);
    out += '}';
  }
  out += "]}";
  return out;
}

uint64_t FaultRegistry::TotalFires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t fires = 0;
  for (const auto& [name, state] : points_) fires += state.fires;
  return fires;
}

uint64_t FaultRegistry::Fires(const char* point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

}  // namespace sharing

#include "common/metrics_format.h"

namespace sharing {

namespace {

bool ValidPrometheusFirstChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool ValidPrometheusChar(char c) {
  return ValidPrometheusFirstChar(c) || (c >= '0' && c <= '9');
}

void AppendSample(std::string* out, const std::string& name,
                  const char* label, int64_t value) {
  *out += name;
  *out += label;  // "" or a {quantile="..."} block
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    out.push_back(ValidPrometheusChar(c) ? c : '_');
  }
  if (out.empty() || !ValidPrometheusFirstChar(out.front())) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string MetricsJsonObject(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : snapshot) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;  // metric names are [a-z0-9_.]: no escaping needed
    out += "\":";
    out += std::to_string(value);
  }
  out += "}";
  return out;
}

std::string MetricsJsonLine(const MetricsSnapshot& snapshot,
                            int64_t uptime_ms) {
  return "{\"uptime_ms\":" + std::to_string(uptime_ms) +
         ",\"metrics\":" + MetricsJsonObject(snapshot) + "}";
}

std::string MetricsPrometheusText(const TypedMetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " counter\n";
    AppendSample(&out, prom, "", value);
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " gauge\n";
    AppendSample(&out, prom, "", gauge.value);
    const std::string hwm = prom + "_hwm";
    out += "# TYPE " + hwm + " gauge\n";
    AppendSample(&out, hwm, "", gauge.high_water);
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " summary\n";
    AppendSample(&out, prom, "{quantile=\"0.5\"}", hist.p50);
    AppendSample(&out, prom, "{quantile=\"0.95\"}", hist.p95);
    AppendSample(&out, prom, "{quantile=\"0.99\"}", hist.p99);
    AppendSample(&out, prom + "_sum", "", hist.sum);
    AppendSample(&out, prom + "_count", "", hist.count);
  }
  return out;
}

}  // namespace sharing

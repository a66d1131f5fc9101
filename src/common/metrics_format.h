// Shared metric serialization: the ONE place a metrics snapshot turns
// into bytes. Every export path renders from here —
//
//  * MetricsJsonObject: the flat snapshot as one JSON object
//    ({name:value,...}; the flat snapshot is itself defined as the
//    projection of the typed one — see FlattenTypedSnapshot). The
//    bench JSON files embed it in their "metrics" rows.
//  * MetricsJsonLine: the admin server's `GET /metrics.json` body
//    ({"uptime_ms":N,"metrics":<MetricsJsonObject>}).
//  * MetricsPrometheusText: the admin server's `GET /metrics` body in
//    the Prometheus text exposition format (version 0.0.4), rendered
//    from the typed snapshot so counters/gauges/histograms keep their
//    kinds (# TYPE lines, summary quantile labels).
//
// Because every serializer consumes the same registry snapshot, the
// JSON line, the bench JSON and a Prometheus scrape can never
// disagree about a metric's value or name set.

#pragma once

#include <string>

#include "common/metrics.h"

namespace sharing {

/// Maps a registry metric name onto a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Dots (our namespace separator) become
/// underscores — `sp.pages_shared` -> `sp_pages_shared` — as does any
/// other invalid character; a leading digit gains a `_` prefix. The
/// mapping is injective over the registry's naming convention
/// ([a-z0-9_.], no underscore-vs-dot twins), which the formatter unit
/// test asserts for every canonical name.
std::string PrometheusMetricName(const std::string& name);

/// One snapshot as a compact JSON object: {"a.b":1,...}. Metric names
/// are emitted verbatim (registry names are [a-z0-9_.]: nothing to
/// escape).
std::string MetricsJsonObject(const MetricsSnapshot& snapshot);

/// One snapshot as a self-contained JSON line (no trailing newline):
/// {"uptime_ms":N,"metrics":{"a.b":1,...}}.
std::string MetricsJsonLine(const MetricsSnapshot& snapshot,
                            int64_t uptime_ms);

/// The whole snapshot in Prometheus text exposition format:
///  * counters: `# TYPE name counter` + one sample;
///  * gauges: the value, plus a companion `<name>_hwm` gauge for the
///    high-water mark;
///  * histograms: a summary — `name{quantile="0.5|0.95|0.99"}`,
///    `name_sum`, `name_count` (our log-bucketed quantile estimates
///    slot into the summary type; no configurable buckets to expose).
std::string MetricsPrometheusText(const TypedMetricsSnapshot& snapshot);

}  // namespace sharing

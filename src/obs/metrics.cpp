#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "obs/json_out.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"

namespace syncpat::obs {

namespace {

/// Histogram as JSON: count, sum, and the non-empty log2 buckets as
/// [bucket_index, count] pairs (bucket_lo(i) recovers the value range).
void append_histogram_json(JsonOut& w, const util::Histogram& h) {
  w.lit("{\"count\":").num(h.count()).lit(",\"sum\":").num(h.sum());
  w.lit(",\"buckets\":[");
  bool first = true;
  for (std::size_t i = 0; i < util::Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    w.lit(first ? "[" : ",[").num(i).lit(",").num(h.bucket_count(i)).lit("]");
    first = false;
  }
  w.lit("]}");
}

/// CSV cell-safe: the exported labels are program/scheme names (no commas or
/// quotes in practice), but scrub separators anyway so a row stays a row.
void csv_escape(JsonOut& out, std::string_view s) {
  for (const char c : s) out.ch(c == ',' || c == '\n' || c == '\r' ? ' ' : c);
}

/// The `lock.0x<line>,<name>.count|.sum|.bucketN,<value>` rows of one
/// per-lock histogram.
void append_histogram_csv(JsonOut& w, std::uint32_t lock_line,
                          std::string_view name, const util::Histogram& h) {
  const auto row = [&](std::string_view field) -> JsonOut& {
    return w.lit("lock.").hex32(lock_line).lit(",").lit(name).lit(field);
  };
  row(".count,").num(h.count()).lit("\n");
  row(".sum,").num(h.sum()).lit("\n");
  for (std::size_t i = 0; i < util::Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    row(".bucket").num(i).lit(",").num(h.bucket_count(i)).lit("\n");
  }
}

}  // namespace

// --------------------------------------------------------------------------
// BusWindowGauge

BusWindowGauge::BusWindowGauge(std::uint32_t window_cycles)
    : window_cycles_(window_cycles) {
  SYNCPAT_ASSERT(window_cycles_ > 0);
}

void BusWindowGauge::credit(std::uint64_t cycle, std::uint64_t busy,
                            bool subtract) {
  while (busy > 0) {
    const std::uint64_t w = cycle / window_cycles_;
    if (busy_.size() <= w) busy_.resize(w + 1, 0);
    const std::uint64_t window_end = (w + 1) * std::uint64_t{window_cycles_};
    const std::uint64_t in_window = std::min(busy, window_end - cycle);
    if (subtract) {
      SYNCPAT_ASSERT(busy_[w] >= in_window && total_busy_ >= in_window);
      busy_[w] -= in_window;
      total_busy_ -= in_window;
    } else {
      busy_[w] += in_window;
      total_busy_ += in_window;
    }
    cycle += in_window;
    busy -= in_window;
  }
}

void BusWindowGauge::add(std::uint64_t cycle, std::uint64_t busy) {
  credit(cycle, busy, /*subtract=*/false);
  last_start_ = cycle;
  last_len_ = busy;
}

void BusWindowGauge::finalize(std::uint64_t end_cycle) {
  if (last_len_ > 0 && last_start_ + last_len_ - 1 > end_cycle) {
    // The run ended mid-tenure (a trailing write-back still on the bus):
    // remove the cycles that were never ticked so total_busy() equals the
    // bus's busy-cycle counter exactly.
    const std::uint64_t kept =
        end_cycle >= last_start_ ? end_cycle - last_start_ + 1 : 0;
    credit(last_start_ + kept, last_len_ - kept, /*subtract=*/true);
    last_len_ = kept;
  }
  const std::uint64_t want = end_cycle / window_cycles_ + 1;
  if (busy_.size() < want) busy_.resize(want, 0);
}

double BusWindowGauge::utilization(std::size_t i) const {
  return static_cast<double>(busy_[i]) / static_cast<double>(window_cycles_);
}

// --------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(const MetricsConfig& config,
                                 std::uint32_t num_procs)
    : procs_(num_procs), bus_(config.bus_window_cycles) {}

// --------------------------------------------------------------------------
// Export

MetricsFormat metrics_format_from_path(const std::string& path) {
  const std::size_t dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".json") return MetricsFormat::kJson;
  if (ext == ".csv") return MetricsFormat::kCsv;
  throw std::invalid_argument("metrics output path must end in .json or .csv, got \"" +
                              path + "\"");
}

std::string metrics_to_json(const MetricsRegistry& m, const MetricsMeta& meta) {
  JsonOut w;
  w.lit("{\n\"program\":\"");
  json_escape(w, meta.program);
  w.lit("\",\"scheme\":\"");
  json_escape(w, meta.scheme);
  w.lit("\",\"consistency\":\"");
  json_escape(w, meta.consistency);
  w.lit("\",\"num_procs\":").num(meta.num_procs);
  w.lit(",\"run_time\":").num(meta.run_time).lit(",\n");

  w.lit("\"stall_attribution\":[\n");
  ProcAttribution totals;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    const ProcAttribution& a = m.proc(p).attr;
    w.lit(p == 0 ? "{\"proc\":" : ",\n{\"proc\":").num(p);
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
      w.lit(",\"").lit(stall_cat_name(static_cast<StallCat>(c))).lit("\":");
      w.num(a.cycles[c]);
      totals.cycles[c] += a.cycles[c];
    }
    w.lit(",\"total\":").num(a.total()).lit("}");
  }
  w.lit("\n],\n\"stall_totals\":{");
  for (std::size_t c = 0; c < kNumStallCats; ++c) {
    w.lit(c == 0 ? "\"" : ",\"").lit(stall_cat_name(static_cast<StallCat>(c)));
    w.lit("\":").num(totals.cycles[c]);
  }
  w.lit(",\"total\":").num(totals.total()).lit("},\n");

  w.lit("\"locks\":[\n");
  bool first = true;
  for (const auto& [line, lm] : m.locks()) {
    w.lit(first ? "{\"line\":" : ",\n{\"line\":").num(line);
    w.lit(",\"acquisitions\":").num(lm.acquisitions);
    w.lit(",\"transfers\":").num(lm.transfers);
    w.lit(",\"waiters_at_acquire\":");
    append_histogram_json(w, lm.waiters_at_acquire);
    w.lit(",\"hold_cycles\":");
    append_histogram_json(w, lm.hold_cycles);
    w.lit(",\"handoff_cycles\":");
    append_histogram_json(w, lm.handoff_cycles);
    w.lit("}");
    first = false;
  }
  w.lit("\n],\n");

  const BusWindowGauge& bus = m.bus();
  w.lit("\"bus\":{\"window_cycles\":").num(bus.window_cycles());
  w.lit(",\"total_busy\":").num(bus.total_busy()).lit(",\"busy_per_window\":[");
  for (std::size_t i = 0; i < bus.windows().size(); ++i) {
    if (i > 0) w.lit(",");
    w.num(bus.windows()[i]);
  }
  w.lit("]},\n\"counters\":{");
  first = true;
  for (const auto& [name, value] : m.counters()) {
    w.lit(first ? "\"" : ",\"");
    json_escape(w, name);
    w.lit("\":").num(value);
    first = false;
  }
  w.lit("}\n}\n");
  return std::string(w.view());
}

std::string metrics_to_csv(const MetricsRegistry& m, const MetricsMeta& meta) {
  JsonOut w;
  w.lit("record,field,value\n");
  w.lit("meta,program,");
  csv_escape(w, meta.program);
  w.lit("\nmeta,scheme,");
  csv_escape(w, meta.scheme);
  w.lit("\nmeta,consistency,");
  csv_escape(w, meta.consistency);
  w.lit("\nmeta,num_procs,").num(meta.num_procs);
  w.lit("\nmeta,run_time,").num(meta.run_time).lit("\n");

  ProcAttribution totals;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    const ProcAttribution& a = m.proc(p).attr;
    for (std::size_t c = 0; c < kNumStallCats; ++c) {
      w.lit("stall.proc").num(p).lit(",");
      w.lit(stall_cat_name(static_cast<StallCat>(c))).lit(",");
      w.num(a.cycles[c]).lit("\n");
      totals.cycles[c] += a.cycles[c];
    }
    w.lit("stall.proc").num(p).lit(",total,").num(a.total()).lit("\n");
  }
  for (std::size_t c = 0; c < kNumStallCats; ++c) {
    w.lit("stall.total,").lit(stall_cat_name(static_cast<StallCat>(c)));
    w.lit(",").num(totals.cycles[c]).lit("\n");
  }
  w.lit("stall.total,total,").num(totals.total()).lit("\n");

  for (const auto& [line, lm] : m.locks()) {
    w.lit("lock.").hex32(line).lit(",acquisitions,").num(lm.acquisitions);
    w.lit("\nlock.").hex32(line).lit(",transfers,").num(lm.transfers);
    w.lit("\n");
    append_histogram_csv(w, line, "waiters_at_acquire", lm.waiters_at_acquire);
    append_histogram_csv(w, line, "hold_cycles", lm.hold_cycles);
    append_histogram_csv(w, line, "handoff_cycles", lm.handoff_cycles);
  }

  const BusWindowGauge& bus = m.bus();
  w.lit("bus,window_cycles,").num(bus.window_cycles()).lit("\n");
  w.lit("bus,total_busy,").num(bus.total_busy()).lit("\n");
  for (std::size_t i = 0; i < bus.windows().size(); ++i) {
    w.lit("bus,window").num(i).lit(",").num(bus.windows()[i]).lit("\n");
  }
  for (const auto& [name, value] : m.counters()) {
    w.lit("counter,");
    csv_escape(w, name);
    w.lit(",").num(value).lit("\n");
  }
  return std::string(w.view());
}

std::string render_metrics(const MetricsRegistry& m, const MetricsMeta& meta,
                           MetricsFormat format) {
  return format == MetricsFormat::kJson ? metrics_to_json(m, meta)
                                        : metrics_to_csv(m, meta);
}

bool metrics_enabled_from_env(bool fallback) {
  const char* env = std::getenv("SYNCPAT_METRICS");
  if (env == nullptr) return fallback;
  return util::parse_bool01(env, "SYNCPAT_METRICS");
}

}  // namespace syncpat::obs

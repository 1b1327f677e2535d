// Chrome trace-event JSON exporter (the `chrome://tracing` / Perfetto
// format): one track per processor, one per lock word, one for the bus, and
// one machine-wide track for barriers and fast-forwarded idle spans.  Two
// counter ("ph":"C") series ride along: windowed bus-busy cycles on the bus
// track and a live waiter count per lock word, so the viewer graphs
// contention over time next to the spans that caused it.
//
// Cycles are written as microsecond timestamps (1 cycle == 1 us), so the
// viewer's time axis reads directly in simulated cycles.  Output is fully
// deterministic: span/instant entries are appended in simulation order and
// the per-track metadata is emitted from sorted sets at finish().
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/event_recorder.hpp"
#include "obs/json_out.hpp"
#include "obs/metrics.hpp"

namespace syncpat::obs {

class ChromeTraceSink final : public TraceSink {
 public:
  /// `process_label` names the trace in the viewer (e.g. "Grav/queuing");
  /// `num_procs` pre-registers the processor tracks so they appear in order
  /// even if a processor never logs an event.
  ChromeTraceSink(std::string process_label, std::uint32_t num_procs);

  void on_event(const TraceEvent& event) override;

  /// The complete JSON document.  Call after EventRecorder::flush().
  [[nodiscard]] std::string finish() const;

 private:
  struct OpenHold {
    std::uint64_t since = 0;
    std::int32_t proc = -1;
  };

  /// Starts the next body record, `,\n{"name":"`, and returns the chunk
  /// it is written into.
  JsonOut& record();
  void close_hold(std::uint32_t line, std::uint64_t now);

  std::string process_label_;
  std::uint32_t num_procs_;
  // The event objects in simulation order, each prefixed with ",\n", kept in
  // chunks of about 1 MiB so the body is never copied while it grows.
  std::vector<JsonOut> body_;
  std::set<std::uint32_t> locks_seen_;
  std::map<std::int32_t, std::uint64_t> wait_open_;  // proc -> acquire begin
  std::map<std::uint32_t, OpenHold> hold_open_;      // lock -> owner + since
  // Counter series: bus tenures bucketed into fixed windows (emitted as one
  // "ph":"C" sample per window at finish()) and the live waiter count per
  // lock (sampled inline at every kAcquireBegin / kAcquired).
  BusWindowGauge bus_gauge_;
  std::uint64_t last_cycle_ = 0;  // max event end seen, bounds the gauge
  std::map<std::uint32_t, std::uint64_t> waiters_live_;
};

/// `base` with `label` spliced in before the extension ("out.json" +
/// "Grav/queuing" -> "out.Grav-queuing.json"); slashes and spaces in the
/// label become '-' so the result is a single path component.
[[nodiscard]] std::string trace_out_path(const std::string& base,
                                         const std::string& label);

}  // namespace syncpat::obs

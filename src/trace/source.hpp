// Streaming trace sources.
//
// Paper-scale traces run to millions of references per processor, so nothing
// in the pipeline requires a materialized trace: the simulator, the ideal
// analyzer, and the trace writers all consume a TraceSource one event at a
// time.  Vector-backed sources exist for tests, file loads, and the kernel
// generators (which record as they execute).
//
// Delivery is block-based: next() is a non-virtual inline read from the
// current block [pos, end), and only an exhausted block calls the virtual
// refill(), which points the block at the next run of events.  A
// vector-backed source serves its whole vector as one zero-copy block;
// generators and expanders write bounded blocks into a buffer they own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace syncpat::trace {

/// One processor's event stream.  reset() rewinds to the beginning so a
/// trace can be analyzed ("ideal" pass) and then simulated.
class TraceSource {
 public:
  TraceSource() = default;
  virtual ~TraceSource() = default;

  // The block points into storage the source owns.
  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;

  /// Fills `out` with the next event and returns true, or returns false at
  /// end of trace.
  bool next(Event& out) {
    if (pos_ == end_ && !refill()) [[unlikely]] {
      return false;
    }
    out = *pos_++;
    return true;
  }

  /// Rewinds to the first event; implementations re-point or drop the
  /// current block with set_block().
  virtual void reset() = 0;

 protected:
  /// Points the block at the next run of events via set_block() and returns
  /// true, or returns false at end of trace.  A true return must leave a
  /// non-empty block; once it returns false it keeps doing so until reset().
  virtual bool refill() = 0;

  void set_block(const Event* begin, const Event* end) {
    pos_ = begin;
    end_ = end;
  }

 private:
  const Event* pos_ = nullptr;
  const Event* end_ = nullptr;
};

/// Vector-backed source: the whole vector is one block.
class VectorTraceSource final : public TraceSource {
 public:
  VectorTraceSource() = default;
  explicit VectorTraceSource(std::vector<Event> events)
      : events_(std::move(events)) {
    VectorTraceSource::reset();
  }

  void reset() override {
    set_block(events_.data(), events_.data() + events_.size());
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 protected:
  bool refill() override { return false; }

 private:
  std::vector<Event> events_;
};

/// A whole traced program: one source per processor plus a name.
struct ProgramTrace {
  std::string name;
  std::vector<std::unique_ptr<TraceSource>> per_proc;

  [[nodiscard]] std::size_t num_procs() const { return per_proc.size(); }
  void reset_all() {
    for (auto& s : per_proc) s->reset();
  }
};

/// Drains a source into a vector (test/tool helper; not for paper-scale use).
[[nodiscard]] inline std::vector<Event> collect(TraceSource& source) {
  std::vector<Event> out;
  Event e;
  while (source.next(e)) out.push_back(e);
  return out;
}

}  // namespace syncpat::trace

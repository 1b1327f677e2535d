#include "obs/chrome_trace.hpp"

#include <string_view>

#include "bus/transaction.hpp"
#include "cache/cache.hpp"
#include "obs/json_out.hpp"
#include "trace/address_map.hpp"

namespace syncpat::obs {

namespace {

// Track (pid) layout: one process per hardware layer so the viewer groups
// them; sort indices keep the order stable.
constexpr int kPidProcs = 1;
constexpr int kPidLocks = 2;
constexpr int kPidBus = 3;
constexpr int kPidMachine = 4;

/// "lock N" for addresses in the lock region, hex otherwise.
void lock_label(JsonOut& w, std::uint32_t line) {
  if (trace::AddressMap::classify(line) == trace::Region::kLock &&
      line < trace::AddressMap::lock_addr(1u << 20)) {
    w.lit("lock ").num(trace::AddressMap::lock_id(line));
  } else {
    w.hex32(line);
  }
}

// A body record is ChromeTraceSink::record()'s `,\n{"name":"`, the name, and
// one of the tails below.  The span and instant tails leave the args object
// open for the caller's fields; every record then ends with "}}".

void span_tail(JsonOut& w, std::string_view cat, int pid, std::uint64_t tid,
               std::uint64_t ts, std::uint64_t dur) {
  w.lit("\",\"cat\":\"").lit(cat).lit("\",\"ph\":\"X\",\"ts\":").num(ts);
  w.lit(",\"dur\":").num(dur).lit(",\"pid\":").num(pid);
  w.lit(",\"tid\":").num(tid).lit(",\"args\":{");
}

void instant_tail(JsonOut& w, std::string_view cat, int pid, std::uint64_t tid,
                  std::uint64_t ts) {
  w.lit("\",\"cat\":\"").lit(cat).lit("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
  w.num(ts).lit(",\"pid\":").num(pid).lit(",\"tid\":").num(tid);
  w.lit(",\"args\":{");
}

void counter_tail(JsonOut& w, std::string_view cat, int pid, std::uint64_t ts,
                  std::string_view key, std::uint64_t value) {
  w.lit("\",\"cat\":\"").lit(cat).lit("\",\"ph\":\"C\",\"ts\":").num(ts);
  w.lit(",\"pid\":").num(pid).lit(",\"args\":{\"").lit(key).lit("\":");
  w.num(value).lit("}}");
}

void line_arg(JsonOut& w, std::uint32_t line) {
  w.lit("\"line\":\"").hex32(line).lit("\"");
}

std::uint64_t proc_tid(std::int32_t proc) {
  return static_cast<std::uint64_t>(proc);
}

}  // namespace

ChromeTraceSink::ChromeTraceSink(std::string process_label,
                                 std::uint32_t num_procs)
    : process_label_(std::move(process_label)),
      num_procs_(num_procs),
      bus_gauge_(MetricsConfig{}.bus_window_cycles) {}

JsonOut& ChromeTraceSink::record() {
  // A chunk is closed once it passes kChunkBytes; the slack covers the
  // record that crosses the mark, so no chunk ever regrows.
  constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  constexpr std::size_t kChunkSlack = 4096;
  if (body_.empty() || body_.back().size() >= kChunkBytes) {
    body_.emplace_back().reserve(kChunkBytes + kChunkSlack);
  }
  return body_.back().lit(",\n{\"name\":\"");
}

void ChromeTraceSink::close_hold(std::uint32_t line, std::uint64_t now) {
  const auto it = hold_open_.find(line);
  if (it == hold_open_.end()) return;
  const OpenHold& hold = it->second;
  JsonOut& w = record();
  w.lit("held by p").num(hold.proc);
  span_tail(w, "locks", kPidLocks, line, hold.since, now - hold.since);
  w.lit("\"proc\":").num(hold.proc).lit("}}");
  hold_open_.erase(it);
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  if (ev.cycle > last_cycle_) last_cycle_ = ev.cycle;
  switch (ev.kind) {
    case EventKind::kAcquireBegin: {
      wait_open_[ev.proc] = ev.cycle;
      locks_seen_.insert(ev.line);
      JsonOut& w = record();
      w.lit("waiters ");
      lock_label(w, ev.line);
      counter_tail(w, "locks", kPidLocks, ev.cycle, "waiters",
                   ++waiters_live_[ev.line]);
      break;
    }
    case EventKind::kAcquired: {
      locks_seen_.insert(ev.line);
      if (const auto it = wait_open_.find(ev.proc); it != wait_open_.end()) {
        JsonOut& w = record();
        w.lit("wait ");
        lock_label(w, ev.line);
        span_tail(w, "locks", kPidProcs, proc_tid(ev.proc), it->second,
                  ev.cycle - it->second);
        line_arg(w, ev.line);
        w.lit("}}");
        wait_open_.erase(it);
      }
      hold_open_[ev.line] = OpenHold{ev.cycle, ev.proc};
      if (std::uint64_t& waiters = waiters_live_[ev.line]; waiters > 0) {
        JsonOut& w = record();
        w.lit("waiters ");
        lock_label(w, ev.line);
        counter_tail(w, "locks", kPidLocks, ev.cycle, "waiters", --waiters);
      }
      break;
    }
    case EventKind::kReleaseBegin:
    case EventKind::kReleased:
      locks_seen_.insert(ev.line);
      close_hold(ev.line, ev.cycle);
      break;
    case EventKind::kHandoff: {
      locks_seen_.insert(ev.line);
      close_hold(ev.line, ev.cycle);
      JsonOut& w = record();
      w.lit("handoff");
      instant_tail(w, "locks", kPidLocks, ev.line, ev.cycle);
      w.lit("\"waiters_left\":").num(ev.a).lit("}}");
      break;
    }
    case EventKind::kTransferDone: {
      locks_seen_.insert(ev.line);
      JsonOut& w = record();
      w.lit("transfer");
      span_tail(w, "locks", kPidLocks, ev.line, ev.cycle - ev.b, ev.b);
      w.lit("}}");
      break;
    }
    case EventKind::kSpinInvalidated: {
      JsonOut& w = record();
      w.lit("spin invalidated");
      instant_tail(w, "locks", kPidProcs, proc_tid(ev.proc), ev.cycle);
      line_arg(w, ev.line);
      w.lit("}}");
      break;
    }
    case EventKind::kBusGrant: {
      bus_gauge_.add(ev.cycle, ev.b);
      if (ev.cycle + ev.b > last_cycle_) last_cycle_ = ev.cycle + ev.b;
      JsonOut& w = record();
      w.lit(bus::txn_kind_name(static_cast<bus::TxnKind>(ev.a & 0xff)));
      if ((ev.a & 0x100) != 0) w.lit(" resp");
      span_tail(w, "bus", kPidBus, 0, ev.cycle, ev.b);
      w.lit("\"proc\":").num(ev.proc).lit(",");
      line_arg(w, ev.line);
      w.lit("}}");
      break;
    }
    case EventKind::kBusComplete: {
      JsonOut& w = record();
      w.lit(bus::txn_kind_name(static_cast<bus::TxnKind>(ev.b))).lit(" ");
      w.hex32(ev.line);
      span_tail(w, "bus", kPidProcs, proc_tid(ev.proc), ev.cycle - ev.a, ev.a);
      line_arg(w, ev.line);
      w.lit("}}");
      break;
    }
    case EventKind::kMesiTransition: {
      JsonOut& w = record();
      w.lit(cache::state_name(static_cast<cache::LineState>(ev.a))).lit("->");
      w.lit(cache::state_name(static_cast<cache::LineState>(ev.b)));
      instant_tail(w, "coherence", kPidProcs, proc_tid(ev.proc), ev.cycle);
      line_arg(w, ev.line);
      w.lit("}}");
      break;
    }
    case EventKind::kBarrierArrive: {
      JsonOut& w = record();
      w.lit("barrier arrive p").num(ev.proc);
      instant_tail(w, "barriers", kPidMachine, 0, ev.cycle);
      line_arg(w, ev.line);
      w.lit(",\"already_waiting\":").num(ev.a).lit("}}");
      break;
    }
    case EventKind::kBarrierRelease: {
      JsonOut& w = record();
      w.lit("barrier release");
      instant_tail(w, "barriers", kPidMachine, 0, ev.cycle);
      line_arg(w, ev.line);
      w.lit(",\"released\":").num(ev.a).lit("}}");
      break;
    }
    case EventKind::kIdleSpan: {
      JsonOut& w = record();
      w.lit("quiescent");
      span_tail(w, "idle", kPidMachine, 0, ev.cycle, ev.a);
      w.lit("\"executed_ticks\":").num(ev.b).lit("}}");
      break;
    }
  }
}

std::string ChromeTraceSink::finish() const {
  // The per-track metadata (head) and the bus-busy counter series (tail) are
  // small; the body is the bulk of the document, so it is copied exactly
  // once, into a string reserved at the document's final size.
  JsonOut h;
  h.lit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  const struct {
    int pid;
    std::string_view suffix;
  } kProcesses[] = {{kPidProcs, "processors"},
                    {kPidLocks, "locks"},
                    {kPidBus, "bus"},
                    {kPidMachine, "machine"}};
  for (const auto& p : kProcesses) {
    h.lit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":").num(p.pid);
    h.lit(",\"args\":{\"name\":\"");
    json_escape(h, process_label_);
    h.ch(' ').lit(p.suffix).lit("\"}},\n");
    h.lit("{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":").num(p.pid);
    h.lit(",\"args\":{\"sort_index\":").num(p.pid).lit("}},\n");
  }
  for (std::uint32_t p = 0; p < num_procs_; ++p) {
    h.lit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(kPidProcs);
    h.lit(",\"tid\":").num(p).lit(",\"args\":{\"name\":\"proc ").num(p);
    h.lit("\"}},\n");
  }
  for (const std::uint32_t line : locks_seen_) {
    h.lit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(kPidLocks);
    h.lit(",\"tid\":").num(line).lit(",\"args\":{\"name\":\"");
    lock_label(h, line);
    h.lit("\"}},\n");
  }
  h.lit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(kPidBus);
  h.lit(",\"tid\":0,\"args\":{\"name\":\"bus\"}},\n");
  h.lit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":").num(kPidMachine);
  h.lit(",\"tid\":0,\"args\":{\"name\":\"machine\"}}");

  // Bus-busy counter series: one sample per gauge window, stamped at the
  // window's start cycle.  The gauge is copied so finish() stays const and
  // repeatable; finalize() clips the final tenure at the last event cycle.
  JsonOut t;
  BusWindowGauge gauge = bus_gauge_;
  gauge.finalize(last_cycle_);
  for (std::size_t i = 0; i < gauge.windows().size(); ++i) {
    t.lit(",\n{\"name\":\"bus busy cycles");
    counter_tail(t, "bus", kPidBus,
                 static_cast<std::uint64_t>(i) * gauge.window_cycles(), "busy",
                 gauge.windows()[i]);
  }
  t.lit("\n]}\n");

  std::size_t bytes = h.size() + t.size();
  for (const JsonOut& chunk : body_) bytes += chunk.size();
  std::string out;
  out.reserve(bytes);
  out += h.view();
  for (const JsonOut& chunk : body_) out += chunk.view();
  out += t.view();
  return out;
}

std::string trace_out_path(const std::string& base, const std::string& label) {
  std::string clean;
  clean.reserve(label.size());
  for (const char c : label) {
    clean.push_back(c == '/' || c == ' ' ? '-' : c);
  }
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "." + clean;
  }
  return base.substr(0, dot) + "." + clean + base.substr(dot);
}

}  // namespace syncpat::obs

// Tests for the cycle-stamped event-tracing subsystem (src/obs/): recorder
// staging/draining, category parsing, Chrome trace-event JSON validity, the
// hand-off == Transfers accounting contract, byte-identical results with
// tracing off vs on, identical traces across engine job counts, bulk idle
// spans from the fast-forward engine, well-formed exports under long labels,
// and (ObsGolden) every exported byte pinned by digest.
//
// The threaded tests' suite names start with "Trace" so
// `--gtest_filter='Trace*'` (the TSan recipe in EXPERIMENTS.md) covers them;
// ObsGolden is single-threaded.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_engine.hpp"
#include "core/simulator.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/event_recorder.hpp"
#include "obs/lock_timeline.hpp"
#include "report/lock_timeline.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using testutil::JsonChecker;

/// Records every delivered event plus the flush calls.
class RecordingSink final : public obs::TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }
  void on_flush() override { ++flushes; }

  std::vector<TraceEvent> events;
  int flushes = 0;
};

TEST(TraceRecorder, DeliversEventsInOrderThroughATinyRing) {
  obs::TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 2;  // forces mid-run drains
  obs::EventRecorder recorder(config);
  RecordingSink sink;
  recorder.add_sink(&sink);

  for (std::uint64_t c = 1; c <= 5; ++c) {
    TraceEvent ev;
    ev.cycle = c;
    ev.kind = EventKind::kAcquired;
    recorder.emit(ev);
  }
  recorder.flush();

  EXPECT_EQ(recorder.emitted(), 5u);
  ASSERT_EQ(sink.events.size(), 5u);
  for (std::uint64_t c = 1; c <= 5; ++c) {
    EXPECT_EQ(sink.events[c - 1].cycle, c);
  }
  EXPECT_EQ(sink.flushes, 1);
}

TEST(TraceRecorder, CategoryMaskFiltersWants) {
  obs::TraceConfig config;
  config.categories = obs::category::kLocks | obs::category::kIdle;
  obs::EventRecorder recorder(config);
  EXPECT_TRUE(recorder.wants(obs::category::kLocks));
  EXPECT_TRUE(recorder.wants(obs::category::kIdle));
  EXPECT_FALSE(recorder.wants(obs::category::kBus));
  EXPECT_FALSE(recorder.wants(obs::category::kCoherence));
}

TEST(TraceCategories, ParseAndRender) {
  EXPECT_EQ(obs::parse_categories("locks"), obs::category::kLocks);
  EXPECT_EQ(obs::parse_categories("locks,bus,coherence"),
            obs::category::kLocks | obs::category::kBus |
                obs::category::kCoherence);
  EXPECT_EQ(obs::parse_categories("all"), obs::category::kAll);
  EXPECT_THROW(static_cast<void>(obs::parse_categories("nope")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::parse_categories("")),
               std::invalid_argument);
  EXPECT_EQ(obs::categories_to_string(obs::category::kLocks |
                                      obs::category::kBus),
            "locks,bus");
  EXPECT_EQ(obs::categories_to_string(obs::category::kAll), "all");
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

core::ExperimentOutcome traced_qsort(
    std::uint32_t categories,
    core::EngineKind engine = core::EngineKind::kDes) {
  core::MachineConfig config;
  config.lock_scheme = sync::SchemeKind::kQueuing;
  config.trace.enabled = true;
  config.trace.categories = categories;
  config.engine = engine;
  return core::run_experiment(config, workload::qsort_profile(), 128);
}

TEST(TraceChrome, ExportIsWellFormedJson) {
  const core::ExperimentOutcome outcome = traced_qsort(obs::category::kAll);
  ASSERT_FALSE(outcome.trace_json.empty());
  JsonChecker checker(outcome.trace_json);
  EXPECT_TRUE(checker.valid());
  // The four fixed tracks plus the per-processor thread names.
  EXPECT_GE(count_occurrences(outcome.trace_json, "\"process_name\""), 4u);
  EXPECT_GE(count_occurrences(outcome.trace_json, "\"thread_name\""),
            static_cast<std::size_t>(workload::qsort_profile().num_procs));
}

// The acceptance contract: hand-off events are emitted at the exact source
// line that counts a transfer, so their count in the exported JSON equals
// the Transfers column of the contention tables — under both engines.
TEST(TraceChrome, HandoffCountEqualsTransfersColumn) {
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    const core::ExperimentOutcome outcome =
        traced_qsort(obs::category::kAll, engine);
    EXPECT_GT(outcome.sim.locks.transfers, 0u) << core::engine_name(engine);
    EXPECT_EQ(count_occurrences(outcome.trace_json, "\"name\":\"handoff\""),
              outcome.sim.locks.transfers)
        << core::engine_name(engine);
    EXPECT_EQ(outcome.lock_timeline.total_handoffs(),
              outcome.sim.locks.transfers)
        << core::engine_name(engine);
  }
}

// The DES core ticks only event cycles but emits the exact per-cycle event
// stream (it never substitutes bulk idle-span records), so the exported
// trace bytes must match per-cycle ticking exactly.
TEST(TraceEngine, TraceBytesIdenticalAcrossExecutionEngines) {
  core::MachineConfig tick;
  tick.lock_scheme = sync::SchemeKind::kQueuing;
  tick.trace.enabled = true;
  tick.engine = core::EngineKind::kTick;
  tick.fast_forward = false;  // run-ahead would legitimately emit idle spans
  const core::ExperimentOutcome per_cycle =
      core::run_experiment(tick, workload::qsort_profile(), 128);

  const core::ExperimentOutcome des = traced_qsort(obs::category::kAll);
  ASSERT_FALSE(des.trace_json.empty());
  EXPECT_EQ(count_occurrences(des.trace_json, "\"name\":\"quiescent\""), 0u);
  EXPECT_EQ(des.trace_json, per_cycle.trace_json);
}

TEST(TraceChrome, CategoryFilterDropsOtherTracks) {
  const core::ExperimentOutcome locks_only =
      traced_qsort(obs::category::kLocks);
  EXPECT_GT(count_occurrences(locks_only.trace_json, "\"name\":\"handoff\""),
            0u);
  EXPECT_EQ(count_occurrences(locks_only.trace_json, "->"), 0u);  // no MESI
}

TEST(TraceChrome, OutPathSplicesSanitizedLabel) {
  EXPECT_EQ(obs::trace_out_path("out.json", "Grav/queuing"),
            "out.Grav-queuing.json");
  EXPECT_EQ(obs::trace_out_path("trace", "Qsort x128"), "trace.Qsort-x128");
}

/// Everything the paper tables report, for exact comparison.
std::string result_fingerprint(const core::SimulationResult& sim) {
  std::string out;
  out += "run_time=" + std::to_string(sim.run_time);
  out += " acq=" + std::to_string(sim.locks.acquisitions);
  out += " xfer=" + std::to_string(sim.locks.transfers);
  out += " bus=" + std::to_string(sim.traffic.total());
  out += " barriers=" + std::to_string(sim.barriers_completed);
  for (const core::ProcResult& p : sim.per_proc) {
    out += " [" + std::to_string(p.work_cycles) + "," +
           std::to_string(p.stall_cache) + "," + std::to_string(p.stall_lock) +
           "," + std::to_string(p.completion_cycle) + "]";
  }
  return out;
}

// Tracing must be a pure observer: results with the recorder attached are
// identical to a default-off run.
TEST(TraceParity, ResultsIdenticalTracingOffVsOn) {
  core::MachineConfig off;
  off.lock_scheme = sync::SchemeKind::kTtas;
  const core::ExperimentOutcome plain =
      core::run_experiment(off, workload::grav_profile(), 128);
  EXPECT_TRUE(plain.trace_json.empty());

  core::MachineConfig on = off;
  on.trace.enabled = true;
  const core::ExperimentOutcome traced =
      core::run_experiment(on, workload::grav_profile(), 128);
  EXPECT_FALSE(traced.trace_json.empty());

  EXPECT_EQ(result_fingerprint(plain.sim), result_fingerprint(traced.sim));
}

// Per-cell sinks make the trace documents an engine-level determinism
// guarantee: the same grid yields the same bytes at any worker count.
TEST(TraceEngine, TraceJsonIdenticalAcrossJobCounts) {
  core::ExperimentGrid grid;
  grid.base.trace.enabled = true;
  grid.profiles = {workload::qsort_profile()};
  grid.schemes = {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas};
  grid.scales = {128};

  core::EngineOptions serial;
  serial.jobs = 1;
  core::EngineOptions pooled;
  pooled.jobs = 4;
  const core::GridResult a = core::run_grid(grid, serial);
  const core::GridResult b = core::run_grid(grid, pooled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a.results[i].ok());
    ASSERT_TRUE(b.results[i].ok());
    EXPECT_FALSE(a.results[i].outcome.trace_json.empty());
    EXPECT_EQ(a.results[i].outcome.trace_json, b.results[i].outcome.trace_json)
        << "cell " << a.cells[i].label();
    EXPECT_EQ(a.results[i].outcome.lock_timeline.total_handoffs(),
              a.results[i].outcome.sim.locks.transfers)
        << "cell " << a.cells[i].label();
  }
}

TEST(TraceTimeline, ReportTableCoversEveryPhase) {
  const core::ExperimentOutcome outcome = traced_qsort(obs::category::kLocks);
  ASSERT_FALSE(outcome.lock_timeline.locks.empty());
  const report::Table t =
      report::lock_timeline_table(outcome.lock_timeline, 4, 4);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("all"), std::string::npos);
  EXPECT_NE(text.str().find("1/4"), std::string::npos);
  EXPECT_NE(text.str().find("4/4"), std::string::npos);
}

// A fast-forwarded quiescent stretch must appear as one bulk idle-span
// event, not thousands of per-cycle records (and not be silently lost).
TEST(TraceFastForward, SkippedStretchesEmitBulkIdleSpans) {
  workload::BenchmarkProfile coarse = workload::grav_profile();
  coarse.work_cycles_per_ref = 400;  // long quiet gaps between references
  coarse.name = "Grav-coarse";
  const workload::BenchmarkProfile scaled = coarse.scaled(256);
  trace::ProgramTrace program = workload::make_program_trace(scaled);

  core::MachineConfig config;
  config.num_procs = scaled.num_procs;
  config.engine = core::EngineKind::kTick;  // run-ahead is a tick-engine mode
  config.fast_forward = true;
  config.trace.enabled = true;
  core::Simulator sim(config, program);
  RecordingSink sink;
  ASSERT_NE(sim.recorder(), nullptr);
  sim.recorder()->add_sink(&sink);
  const core::SimulationResult result = sim.run();

  ASSERT_GT(sim.fast_forward_stats().jumps, 0u)
      << "coarse profile did not engage fast-forward; test premise broken";
  std::uint64_t spans = 0;
  std::uint64_t last_cycle = 0;
  for (const TraceEvent& ev : sink.events) {
    if (ev.kind == EventKind::kIdleSpan) {
      // Emitted when the stretch ends but stamped at its start (span
      // semantics), so it is exempt from the monotonicity check below.
      ++spans;
      EXPECT_GT(ev.a, 0u);    // span length
      EXPECT_LE(ev.b, ev.a);  // executed ticks fit inside the span
      EXPECT_LE(ev.cycle + ev.a, result.run_time);
      continue;
    }
    EXPECT_GE(ev.cycle, last_cycle) << "events out of simulation order";
    last_cycle = ev.cycle;
  }
  EXPECT_GT(spans, 0u);
}

// ---------------------------------------------------------------------------
// Golden exports: every byte of the Chrome-trace document and of both metrics
// exports is pinned by digest and length, so a change to how the exporters
// format their records cannot change what they write.  Together the cells
// emit every EventKind the engines produce.

/// FNV-1a, 64-bit: a fixed, portable digest (std::hash is neither).
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kIdleSpan) + 1;

class KindCountingSink final : public obs::TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    ++counts[static_cast<std::size_t>(event.kind)];
  }
  std::array<std::uint64_t, kNumEventKinds> counts{};
};

struct GoldenCell {
  const char* name;
  std::uint64_t trace_fnv;
  std::size_t trace_bytes;
  std::uint64_t metrics_json_fnv;
  std::size_t metrics_json_bytes;
  std::uint64_t metrics_csv_fnv;
  std::size_t metrics_csv_bytes;
};

struct GoldenExports {
  std::string trace_json;
  std::string metrics_json;
  std::string metrics_csv;
};

/// One traced, metered run of `profile` with every trace category on.
GoldenExports golden_run(core::MachineConfig config,
                         const workload::BenchmarkProfile& profile,
                         KindCountingSink& kinds) {
  trace::ProgramTrace program = workload::make_program_trace(profile);
  config.num_procs = profile.num_procs;
  config.trace.enabled = true;
  config.trace.categories = obs::category::kAll;
  config.metrics.enabled = true;
  core::Simulator sim(config, program);
  obs::ChromeTraceSink chrome(profile.name, profile.num_procs);
  sim.recorder()->add_sink(&chrome);
  sim.recorder()->add_sink(&kinds);
  const core::SimulationResult r = sim.run();
  const obs::MetricsMeta meta{r.program, r.scheme, r.consistency, r.num_procs,
                              r.run_time};
  return {chrome.finish(), obs::metrics_to_json(*sim.metrics(), meta),
          obs::metrics_to_csv(*sim.metrics(), meta)};
}

class ObsGolden : public ::testing::Test {
 protected:
  // The cells pick their engine and fast-forward mode themselves.
  void SetUp() override {
    unsetenv("SYNCPAT_ENGINE");
    unsetenv("SYNCPAT_FAST_FORWARD");
    unsetenv("SYNCPAT_METRICS");
  }

  static void expect_golden(const GoldenCell& want, const GoldenExports& got) {
    JsonChecker trace_checker(got.trace_json);
    EXPECT_TRUE(trace_checker.valid()) << want.name;
    JsonChecker metrics_checker(got.metrics_json);
    EXPECT_TRUE(metrics_checker.valid()) << want.name;
    EXPECT_EQ(got.trace_json.size(), want.trace_bytes) << want.name;
    EXPECT_EQ(fnv1a64(got.trace_json), want.trace_fnv) << want.name;
    EXPECT_EQ(got.metrics_json.size(), want.metrics_json_bytes) << want.name;
    EXPECT_EQ(fnv1a64(got.metrics_json), want.metrics_json_fnv) << want.name;
    EXPECT_EQ(got.metrics_csv.size(), want.metrics_csv_bytes) << want.name;
    EXPECT_EQ(fnv1a64(got.metrics_csv), want.metrics_csv_fnv) << want.name;
    if (std::getenv("SYNCPAT_PRINT_GOLDEN") != nullptr) {
      std::printf("{\"%s\", 0x%016llxull, %zu, 0x%016llxull, %zu, "
                  "0x%016llxull, %zu},\n",
                  want.name,
                  static_cast<unsigned long long>(fnv1a64(got.trace_json)),
                  got.trace_json.size(),
                  static_cast<unsigned long long>(fnv1a64(got.metrics_json)),
                  got.metrics_json.size(),
                  static_cast<unsigned long long>(fnv1a64(got.metrics_csv)),
                  got.metrics_csv.size());
    }
  }
};

// Digests taken from the snprintf-based exporters the JSON writer replaced.
// SYNCPAT_PRINT_GOLDEN=1 prints the current values in table form.
TEST_F(ObsGolden, ExportsAreByteIdenticalAndCoverEveryEventKind) {
  constexpr GoldenCell kCells[] = {
      {"qsort-des", 0x219510a859d627c7ull, 9956170, 0x83164231e5f067b0ull,
       3656, 0x0f69bb62cdf64499ull, 5602},
      {"pdsa-ttas-barriers", 0xc7d5c39be0e58c24ull, 8679298,
       0x737bf7385de0ffcdull, 4644, 0x3cd38928a4c1bc59ull, 7901},
      {"grav-ttas-weak", 0xa6d43b82c626ab6cull, 9164075, 0x106d9586e25b4c2full,
       4694, 0xcad0f18dbb836ea2ull, 8617},
      {"grav-coarse-tick-ff", 0x154a64e466a842ccull, 6112899,
       0x6f8424a1f74c93eaull, 5860, 0xa8b471fd676d2f95ull, 15419},
  };
  KindCountingSink kinds;

  // Qsort x128 on DES: the dense lock/bus/coherence mix.
  core::MachineConfig des;
  des.lock_scheme = sync::SchemeKind::kQueuing;
  des.engine = core::EngineKind::kDes;
  expect_golden(kCells[0],
                golden_run(des, workload::qsort_profile().scaled(128), kinds));

  // Barriers, and T&T&S spinners whose cached lock line gets invalidated.
  workload::BenchmarkProfile barriers = workload::pdsa_profile().scaled(128);
  barriers.locking.barriers_per_proc = 4;
  core::MachineConfig ttas = des;
  ttas.lock_scheme = sync::SchemeKind::kTtas;
  expect_golden(kCells[1], golden_run(ttas, barriers, kinds));

  // Weak ordering: the interface's read-bypass path.
  core::MachineConfig weak = ttas;
  weak.consistency = bus::ConsistencyModel::kWeak;
  expect_golden(kCells[2],
                golden_run(weak, workload::grav_profile().scaled(128), kinds));

  // The tick engine with fast-forward: the only source of bulk idle spans.
  workload::BenchmarkProfile coarse = workload::grav_profile();
  coarse.work_cycles_per_ref = 400;
  coarse.name = "Grav-coarse";
  core::MachineConfig ff = des;
  ff.engine = core::EngineKind::kTick;
  ff.fast_forward = true;
  expect_golden(kCells[3], golden_run(ff, coarse.scaled(256), kinds));

  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_GT(kinds.counts[k], 0u)
        << "no cell emits " << obs::event_kind_name(static_cast<EventKind>(k));
  }
}

// A label longer than any fixed formatting buffer must still yield valid
// JSON in both documents, carried through whole.
TEST(TraceChrome, LongLabelKeepsBothExportsWellFormed) {
  const std::string label = "Grav/" + std::string(295, 'x');
  ASSERT_EQ(label.size(), 300u);
  const workload::BenchmarkProfile profile =
      workload::grav_profile().scaled(256);
  trace::ProgramTrace program = workload::make_program_trace(profile);
  core::MachineConfig config;
  config.num_procs = profile.num_procs;
  config.trace.enabled = true;
  config.metrics.enabled = true;
  core::Simulator sim(config, program);
  obs::ChromeTraceSink chrome(label, profile.num_procs);
  sim.recorder()->add_sink(&chrome);
  const core::SimulationResult r = sim.run();

  const std::string trace_json = chrome.finish();
  JsonChecker trace_checker(trace_json);
  EXPECT_TRUE(trace_checker.valid());
  EXPECT_EQ(count_occurrences(trace_json, label + " processors"), 1u);

  const obs::MetricsMeta meta{label, r.scheme, r.consistency, r.num_procs,
                              r.run_time};
  const std::string metrics_json = obs::metrics_to_json(*sim.metrics(), meta);
  JsonChecker metrics_checker(metrics_json);
  EXPECT_TRUE(metrics_checker.valid());
  EXPECT_EQ(count_occurrences(metrics_json, "\"program\":\"" + label + "\""),
            1u);
}

}  // namespace
}  // namespace syncpat

// The deterministic metrics layer: exact stall-cause attribution (every
// simulated cycle charged to exactly one category, ledger == completion
// cycle), per-lock contention histograms conserved against LockStats, the
// windowed bus gauge conserved against the bus's own busy counter, and
// byte-identical exports across fast-forward modes and engine job counts.
//
// Every suite here is named Metrics* so the TSan recipe can select the whole
// layer with --gtest_filter=':Metrics*'.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/interface.hpp"
#include "core/experiment_engine.hpp"
#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "fuzz/render.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profile.hpp"
#include "obs/stall_attribution.hpp"
#include "sync/scheme_factory.hpp"
#include "test_util.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat {
namespace {

using namespace testutil;
using obs::StallCat;

workload::BenchmarkProfile profile_by_name(const std::string& name) {
  for (const auto& p : workload::paper_profiles()) {
    if (p.name == name) return p;
  }
  ADD_FAILURE() << "unknown profile " << name;
  return {};
}

/// The conservation property, checked per processor: the attribution ledger
/// sums to exactly the processor's completion cycle.
void expect_conservation(const obs::MetricsRegistry& m,
                         const core::SimulationResult& r,
                         const std::string& what) {
  ASSERT_EQ(m.num_procs(), r.per_proc.size()) << what;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    EXPECT_EQ(m.proc(p).attr.total(), r.per_proc[p].completion_cycle)
        << what << ": proc " << p;
  }
}

std::uint64_t total_of(const obs::MetricsRegistry& m, StallCat cat) {
  std::uint64_t sum = 0;
  for (std::uint32_t p = 0; p < m.num_procs(); ++p) {
    sum += m.proc(p).attr.of(cat);
  }
  return sum;
}

class MetricsConservation : public ::testing::Test {
 protected:
  // cfg.engine / cfg.fast_forward must control the mode (same reasoning as
  // the engine differential), and SYNCPAT_METRICS must not leak in.
  void SetUp() override {
    unsetenv("SYNCPAT_ENGINE");
    unsetenv("SYNCPAT_FAST_FORWARD");
    unsetenv("SYNCPAT_METRICS");
  }
};

// The tentpole invariant across all 28 machine variants, plus export
// byte-identity between execution engines (metrics must not observe the
// engine's stepping strategy: DES, per-cycle tick, tick with run-ahead).
TEST_F(MetricsConservation, HoldsAcrossSchemesModelsAndPolicies) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Grav").scaled(64);
  for (const sync::SchemeKind scheme : sync::all_scheme_kinds()) {
    for (const bus::ConsistencyModel model :
         {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
      for (const cache::WritePolicy policy :
           {cache::WritePolicy::kWriteBack, cache::WritePolicy::kWriteThrough}) {
        const std::string what =
            std::string(sync::scheme_kind_name(scheme)) + "/" +
            bus::consistency_name(model) + "/" +
            cache::write_policy_name(policy);
        struct EngineMode {
          core::EngineKind engine;
          bool fast_forward;
        };
        constexpr EngineMode kModes[] = {
            {core::EngineKind::kDes, true},
            {core::EngineKind::kTick, true},
            {core::EngineKind::kTick, false},
        };
        std::string exports[3];
        for (std::size_t mode = 0; mode < 3; ++mode) {
          core::MachineConfig cfg;
          cfg.lock_scheme = scheme;
          cfg.consistency = model;
          cfg.write_policy = policy;
          cfg.engine = kModes[mode].engine;
          cfg.fast_forward = kModes[mode].fast_forward;
          cfg.metrics.enabled = true;
          cfg.num_procs = scaled.num_procs;
          trace::ProgramTrace program = workload::make_program_trace(scaled);
          core::Simulator sim(cfg, program);
          const core::SimulationResult r = sim.run();
          const obs::MetricsRegistry* m = sim.metrics();
          ASSERT_NE(m, nullptr) << what;
          expect_conservation(*m, r, what);
          // Per-lock histogram totals conserve against the lock counters.
          for (const auto& [line, lm] : m->locks()) {
            EXPECT_EQ(lm.waiters_at_acquire.count(), lm.acquisitions)
                << what << ": lock " << line;
            EXPECT_EQ(lm.handoff_cycles.count(), lm.transfers)
                << what << ": lock " << line;
          }
          // The clipped gauge equals the bus's tick-by-tick busy counter.
          EXPECT_EQ(m->bus().total_busy(), sim.bus().busy_cycles()) << what;
          const obs::MetricsMeta meta{r.program, r.scheme, r.consistency,
                                      r.num_procs, r.run_time};
          exports[mode] = obs::metrics_to_json(*m, meta);
        }
        EXPECT_EQ(exports[0], exports[2])
            << what << ": metrics JSON differs between DES and per-cycle tick";
        EXPECT_EQ(exports[1], exports[2])
            << what << ": metrics JSON differs between fast-forward modes";
      }
    }
  }
}

TEST_F(MetricsConservation, AgreesWithLockStatsAggregates) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Qsort").scaled(64);
  core::MachineConfig cfg;
  cfg.metrics.enabled = true;
  cfg.num_procs = scaled.num_procs;
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  ASSERT_GT(r.locks.acquisitions, 0u);

  std::uint64_t acquisitions = 0;
  std::uint64_t transfers = 0;
  for (const auto& [line, lm] : m->locks()) {
    acquisitions += lm.acquisitions;
    transfers += lm.transfers;
  }
  EXPECT_EQ(acquisitions, r.locks.acquisitions);
  EXPECT_EQ(transfers, r.locks.transfers);
  // Per-lock: the metrics slot and the stats aggregate describe the same
  // lock, sample for sample.
  for (const auto& [line, agg] : sim.lock_stats().per_lock()) {
    const auto it = m->locks().find(line);
    ASSERT_NE(it, m->locks().end()) << "lock " << line;
    EXPECT_EQ(it->second.acquisitions, agg.acquisitions) << "lock " << line;
    EXPECT_EQ(it->second.transfers, agg.transfers) << "lock " << line;
    EXPECT_EQ(it->second.hold_cycles.count(), agg.hold_cycles.count())
        << "lock " << line;
    if (agg.hold_cycles.count() > 0) {
      EXPECT_NEAR(it->second.hold_cycles.mean(), agg.hold_cycles.mean(), 1.0)
          << "lock " << line;
    }
  }
}

class MetricsMicro : public MetricsConservation {};

// Two processors fighting over one lock: the loser's cycles land in the
// lock-wait categories and the hand-off shows up in the lock histograms.
TEST_F(MetricsMicro, SingleLockHandoff) {
  trace::ProgramTrace program = make_program({
      {lock_acq(0, 1), ifetch(0x100, 40), lock_rel(0, 1), ifetch(0x140, 2)},
      {lock_acq(0, 2), ifetch(0x100, 40), lock_rel(0, 1), ifetch(0x140, 2)},
  });
  core::MachineConfig cfg = machine(sync::SchemeKind::kQueuing);
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "single-lock hand-off");

  ASSERT_EQ(m->locks().size(), 1u);
  const obs::LockMetrics& lm = m->locks().begin()->second;
  EXPECT_EQ(lm.acquisitions, 2u);
  EXPECT_EQ(lm.waiters_at_acquire.count(), 2u);
  EXPECT_EQ(lm.handoff_cycles.count(), lm.transfers);
  EXPECT_EQ(lm.hold_cycles.count(), 2u);
  // The loser spent real cycles waiting for the queued lock.
  EXPECT_GT(total_of(*m, StallCat::kLockQueuedWait) +
                total_of(*m, StallCat::kLockSpin),
            20u);
  EXPECT_EQ(total_of(*m, StallCat::kBarrierWait), 0u);
}

// Barrier-only workload: wait cycles are barrier cycles, never lock cycles.
TEST_F(MetricsMicro, BarrierOnly) {
  auto barrier = [](std::uint32_t gap) {
    return trace::Event{trace::AddressMap::barrier_addr(0), gap,
                        trace::Op::kBarrier};
  };
  trace::ProgramTrace program = make_program({
      {barrier(1), ifetch(0x100, 2)},
      {barrier(200), ifetch(0x100, 2)},  // arrives ~200 cycles later
      {barrier(1), ifetch(0x100, 2)},
  });
  core::MachineConfig cfg = machine();
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "barrier-only");
  // The two early arrivals waited out the slow processor's head start.
  EXPECT_GT(total_of(*m, StallCat::kBarrierWait), 300u);
  EXPECT_EQ(total_of(*m, StallCat::kLockQueuedWait), 0u);
  EXPECT_EQ(total_of(*m, StallCat::kLockSpin), 0u);
}

// A store burst under weak ordering saturates the write buffer: the stall
// cycles must be charged to write_buffer_full, not memory latency.
TEST_F(MetricsMicro, WriteBufferSaturation) {
  std::vector<trace::Event> events;
  for (std::uint32_t i = 0; i < 32; ++i) {
    events.push_back(store(shared_line(i), 1));
  }
  events.push_back(ifetch(0x100, 2));
  trace::ProgramTrace program =
      make_program({events}, "write-buffer-saturation");
  core::MachineConfig cfg =
      machine(sync::SchemeKind::kTtas, bus::ConsistencyModel::kWeak);
  cfg.cache_bus_buffer_depth = 2;
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();
  const obs::MetricsRegistry* m = sim.metrics();
  ASSERT_NE(m, nullptr);
  expect_conservation(*m, r, "write-buffer saturation");
  EXPECT_GT(total_of(*m, StallCat::kWriteBufferFull), 0u);
}

// Per-cell metrics bytes must be identical whatever the engine's job count
// (the jobs-differential guarantee extended to the metrics export).
TEST_F(MetricsConservation, ExportBytesIdenticalAcrossJobCounts) {
  core::ExperimentGrid grid;
  grid.base.metrics.enabled = true;
  grid.profiles = {workload::qsort_profile(), workload::fullconn_profile()};
  grid.schemes = {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas};
  grid.scales = {128};

  auto fingerprint = [](const core::GridResult& result) {
    std::string out;
    for (const core::CellResult& cell : result.results) {
      EXPECT_TRUE(cell.ok()) << cell.error;
      EXPECT_FALSE(cell.outcome.metrics_json.empty());
      out += cell.outcome.metrics_json;
      out += '\n';
    }
    return out;
  };

  core::EngineOptions serial;
  serial.jobs = 1;
  core::EngineOptions pooled;
  pooled.jobs = 8;
  const std::string a = fingerprint(core::run_grid(grid, serial));
  const std::string b = fingerprint(core::run_grid(grid, pooled));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MetricsDisabled, SimulatorHoldsNoRegistry) {
  trace::ProgramTrace program = make_program({{ifetch(0x100, 2)}});
  core::MachineConfig cfg = machine();
  cfg.num_procs = 1;
  core::Simulator sim(cfg, program);
  EXPECT_EQ(sim.metrics(), nullptr);
  sim.run();
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_EQ(sim.take_metrics(), nullptr);
}

// Labels are carried through whole, however long: JSON escapes quotes and
// backslashes and drops control characters; CSV scrubs its separators.
TEST(MetricsExport, LongAndSpecialLabelsStayWellFormed) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Qsort").scaled(256);
  trace::ProgramTrace program = workload::make_program_trace(scaled);
  core::MachineConfig cfg = machine();
  cfg.num_procs = scaled.num_procs;
  cfg.metrics.enabled = true;
  core::Simulator sim(cfg, program);
  const core::SimulationResult r = sim.run();

  const std::string tail(290, 'q');
  const obs::MetricsMeta meta{"a\"b\\c,d\ne" + tail, r.scheme, r.consistency,
                              r.num_procs, r.run_time};
  const std::string json = obs::metrics_to_json(*sim.metrics(), meta);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(json.find("\"program\":\"a\\\"b\\\\c,de" + tail + "\","),
            std::string::npos);

  const std::string csv = obs::metrics_to_csv(*sim.metrics(), meta);
  EXPECT_NE(csv.find("\nmeta,program,a\"b\\c d e" + tail + "\n"),
            std::string::npos);
  EXPECT_NE(csv.find("\nmeta,num_procs," + std::to_string(r.num_procs) + "\n"),
            std::string::npos);
}

TEST(MetricsParse, FormatFollowsExtensionStrictly) {
  EXPECT_EQ(obs::metrics_format_from_path("out.json"),
            obs::MetricsFormat::kJson);
  EXPECT_EQ(obs::metrics_format_from_path("dir.v2/cell.csv"),
            obs::MetricsFormat::kCsv);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("out.txt")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("noext")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(obs::metrics_format_from_path("")),
               std::invalid_argument);
}

TEST(MetricsParse, EnvOverrideIsStrict) {
  setenv("SYNCPAT_METRICS", "1", 1);
  EXPECT_TRUE(obs::metrics_enabled_from_env(false));
  setenv("SYNCPAT_METRICS", "0", 1);
  EXPECT_FALSE(obs::metrics_enabled_from_env(true));
  setenv("SYNCPAT_METRICS", "yes", 1);
  EXPECT_THROW(static_cast<void>(obs::metrics_enabled_from_env(false)),
               std::invalid_argument);
  setenv("SYNCPAT_METRICS", "", 1);
  EXPECT_THROW(static_cast<void>(obs::metrics_enabled_from_env(false)),
               std::invalid_argument);
  unsetenv("SYNCPAT_METRICS");
  EXPECT_TRUE(obs::metrics_enabled_from_env(true));
  EXPECT_FALSE(obs::metrics_enabled_from_env(false));
}

TEST(MetricsBusGauge, SplitsTenuresAcrossWindows) {
  obs::BusWindowGauge g(16);
  g.add(0, 40);  // spans windows 0, 1 and half of 2
  ASSERT_EQ(g.windows().size(), 3u);
  EXPECT_EQ(g.windows()[0], 16u);
  EXPECT_EQ(g.windows()[1], 16u);
  EXPECT_EQ(g.windows()[2], 8u);
  EXPECT_EQ(g.total_busy(), 40u);
  g.finalize(63);  // zero-extends to cover the whole run
  ASSERT_EQ(g.windows().size(), 4u);
  EXPECT_EQ(g.windows()[3], 0u);
  EXPECT_EQ(g.total_busy(), 40u);
  EXPECT_DOUBLE_EQ(g.utilization(0), 1.0);
  EXPECT_DOUBLE_EQ(g.utilization(2), 0.5);
}

TEST(MetricsBusGauge, FinalizeClipsTheTrailingTenure) {
  obs::BusWindowGauge g(16);
  g.add(10, 20);      // busy cycles 10..29
  g.finalize(19);     // run ended at cycle 19: cycles 20..29 never ticked
  EXPECT_EQ(g.total_busy(), 10u);
  ASSERT_GE(g.windows().size(), 2u);
  EXPECT_EQ(g.windows()[0], 6u);   // cycles 10..15
  EXPECT_EQ(g.windows()[1], 4u);   // cycles 16..19
}

TEST(MetricsSelfProfile, AttachingNeverChangesTheSimulation) {
  const workload::BenchmarkProfile scaled =
      profile_by_name("Qsort").scaled(256);
  // Both engines: the profiler observes the host, never the simulation, and
  // each engine's time lands in its own phase bucket.
  for (const core::EngineKind engine :
       {core::EngineKind::kDes, core::EngineKind::kTick}) {
    core::MachineConfig cfg;
    cfg.num_procs = scaled.num_procs;
    cfg.engine = engine;

    trace::ProgramTrace plain_program = workload::make_program_trace(scaled);
    core::Simulator plain(cfg, plain_program);
    const std::string plain_rendered = fuzz::render_result(plain.run());

    trace::ProgramTrace profiled_program = workload::make_program_trace(scaled);
    core::Simulator profiled(cfg, profiled_program);
    obs::SelfProfiler profiler;
    profiled.set_self_profiler(&profiler);
    const std::string profiled_rendered = fuzz::render_result(profiled.run());

    EXPECT_EQ(plain_rendered, profiled_rendered)
        << core::engine_name(engine);
    const obs::SelfProfiler::Snapshot snap = profiler.snapshot();
    const auto phase = engine == core::EngineKind::kDes
                           ? obs::SelfProfiler::Phase::kEventLoop
                           : obs::SelfProfiler::Phase::kDenseTick;
    EXPECT_GT(snap.calls[static_cast<std::size_t>(phase)], 0u)
        << core::engine_name(engine);
    EXPECT_FALSE(profiler.to_string().empty());
  }
}

}  // namespace
}  // namespace syncpat

// Benchmark driver for the syncpat simulator.
//
// Runs one named workload in a single process on a single simulation thread
// (no ExperimentEngine pool), driving the layers through their public
// headers in the order a simulation uses them:
//
//   workload::make_program_trace -> core::Simulator construction ->
//   Simulator::run() -> obs / report rendering
//
// and timing each call with steady_clock.  Every cell of every pass is
// checked; the last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// usage: perfbench_driver --workload paper|wide-bus|sparse-observed
//            [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//
// --seed replaces every profile's calibrated seed; without it each profile
// keeps its own.  perfbench/README.md describes the workloads, the metrics
// and which layer each per-layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bus/interface.hpp"
#include "bus/service_discipline.hpp"
#include "cache/cache.hpp"
#include "core/event_queue.hpp"
#include "core/machine_config.hpp"
#include "core/results.hpp"
#include "core/simulator.hpp"
#include "fuzz/render.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profile.hpp"
#include "report/paper_tables.hpp"
#include "sync/scheme_factory.hpp"
#include "trace/analyzer.hpp"
#include "trace/event.hpp"
#include "trace/source.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace syncpat;
using Profile = workload::BenchmarkProfile;

// Trace-length scales.  `paper` runs at the scale of the tracked
// BENCH_simulator.json (its Grav/ttas/sequential cell is 1,362,298 cycles at
// the calibrated seed); `sparse-observed` uses bench_throughput's coarse
// variants' 4x shorter traces.
constexpr std::uint64_t kPaperScale = 8;
constexpr std::uint64_t kSparseScale = 32;
constexpr double kSparseWorkCyclesPerRef = 400.0;
constexpr std::uint32_t kWideBusProcs = 512;
constexpr std::uint64_t kWideBusRefsPerProc = 300;
constexpr int kSetupRounds = 8;

// Variables that would re-route a cell to another engine, discipline, memory
// model, scale or worker count.  Any of them set: refuse to run.
constexpr const char* kPinnedEnv[] = {
    "SYNCPAT_ENGINE", "SYNCPAT_FAST_FORWARD", "SYNCPAT_BUS_DISCIPLINE",
    "SYNCPAT_MODEL",  "SYNCPAT_SCALE",        "SYNCPAT_JOBS",
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : 0.5 * (static_cast<double>(v[n / 2 - 1]) +
                             static_cast<double>(v[n / 2]));
}

// Kept alive so the kernels' results cannot be optimized away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent of each call the benchmark makes into a
// layer, one cell id per cell.  Kept in memory; written as Chrome trace JSON
// at the end of a traced run.

struct Span {
  const char* name = "";
  std::int32_t cell = -1;    // -1: not tied to one cell
  std::int32_t parent = -1;  // index into the span list; -1: root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Runs fn() and returns its host duration in ns; when enabled, also
  /// records it as a span nested under the innermost open one.
  template <typename Fn>
  std::int64_t time(const char* name, std::int32_t cell, Fn&& fn) {
    std::int32_t id = -1;
    if (enabled_) {
      id = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, cell, open_.empty() ? -1 : open_.back(), 0, 0});
      open_.push_back(id);
    }
    const std::int64_t t0 = now_ns();
    try {
      fn();
    } catch (...) {
      close(id, t0, now_ns());
      throw;
    }
    const std::int64_t t1 = now_ns();
    close(id, t0, t1);
    return t1 - t0;
  }

 private:
  void close(std::int32_t id, std::int64_t t0, std::int64_t t1) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].start_ns = t0;
    spans_[static_cast<std::size_t>(id)].end_ns = t1;
    open_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Cell {
  std::string label;  // program/scheme/consistency
  std::size_t profile = 0;  // index into Workload::profiles
  core::MachineConfig config;
  bool observed = false;  // metrics registry + Chrome-trace recorder on
};

struct Workload {
  std::string name;
  std::vector<Profile> profiles;  // seeded and length-scaled
  std::vector<Cell> cells;
  bool renders_report = false;  // paper tables over the cells
};

Profile seeded(Profile p, const std::optional<std::uint64_t>& seed) {
  if (seed) p.seed = *seed;
  return p;
}

void add_cell(Workload& w, std::size_t profile, sync::SchemeKind scheme,
              bus::ConsistencyModel model, bool observed) {
  Cell cell;
  cell.profile = profile;
  cell.config.num_procs = w.profiles[profile].num_procs;
  cell.config.lock_scheme = scheme;
  cell.config.consistency = model;
  cell.config.bus_discipline = bus::DisciplineKind::kRoundRobin;
  cell.config.model = core::MemModelKind::kBus;
  cell.observed = observed;
  cell.label = w.profiles[profile].name + "/" + sync::scheme_kind_name(scheme) +
               "/" + bus::consistency_name(model);
  w.cells.push_back(std::move(cell));
}

constexpr sync::SchemeKind kSchemes[] = {sync::SchemeKind::kQueuing,
                                         sync::SchemeKind::kTtas};

/// The six paper profiles at their paper processor counts; `with_ttas_weak`
/// false drops the T&T&S weak-ordering cells, which no paper table reports.
Workload paper_workload(const std::optional<std::uint64_t>& seed,
                        bool with_ttas_weak) {
  Workload w;
  w.name = "paper";
  w.renders_report = true;
  for (const Profile& p : workload::paper_profiles()) {
    w.profiles.push_back(seeded(p, seed).scaled(kPaperScale));
  }
  for (std::size_t i = 0; i < w.profiles.size(); ++i) {
    for (const sync::SchemeKind scheme : kSchemes) {
      for (const bus::ConsistencyModel model :
           {bus::ConsistencyModel::kSequential, bus::ConsistencyModel::kWeak}) {
        if (!with_ttas_weak && scheme == sync::SchemeKind::kTtas &&
            model == bus::ConsistencyModel::kWeak) {
          continue;
        }
        add_cell(w, i, scheme, model, false);
      }
    }
  }
  return w;
}

/// bench_scaling's contended, non-partitioned ScaleStudy profile.
Profile scale_study_profile(std::uint32_t procs, std::uint64_t refs) {
  Profile p;
  p.name = "ScaleStudy";
  p.num_procs = procs;
  p.refs_per_proc = refs;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 3.0;
  p.locking.pairs_per_proc = 2;
  p.locking.cs_work_cycles = 30.0;
  p.locking.num_locks = 2;
  p.locking.dominant_weight = 0.9;
  p.locking.partitioned = false;
  p.locking.cs_region_bias = 0.8;
  p.locking.barriers_per_proc = 1;
  p.seed = 0x5ca1e;
  return p;
}

Workload wide_bus_workload(const std::optional<std::uint64_t>& seed) {
  Workload w;
  w.name = "wide-bus";
  w.profiles.push_back(
      seeded(scale_study_profile(kWideBusProcs, kWideBusRefsPerProc), seed));
  for (const sync::SchemeKind scheme : kSchemes) {
    add_cell(w, 0, scheme, bus::ConsistencyModel::kSequential, false);
  }
  return w;
}

Workload sparse_observed_workload(const std::optional<std::uint64_t>& seed) {
  Workload w;
  w.name = "sparse-observed";
  for (const Profile& base :
       {workload::grav_profile(), workload::pdsa_profile()}) {
    Profile p = seeded(base, seed);
    p.work_cycles_per_ref = kSparseWorkCyclesPerRef;
    p.name += "-coarse400";
    w.profiles.push_back(p.scaled(kSparseScale));
  }
  for (std::size_t i = 0; i < w.profiles.size(); ++i) {
    for (const sync::SchemeKind scheme : kSchemes) {
      add_cell(w, i, scheme, bus::ConsistencyModel::kSequential, true);
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Per-trace facts the checks need, computed once per workload outside the
// timed window.

struct TraceFacts {
  std::uint64_t lock_pairs = 0;  // acquisitions the simulator must count
  std::uint64_t events = 0;      // trace events run() consumes
};

std::vector<TraceFacts> analyze(const Workload& w, Tracer& tracer,
                                std::int64_t& analyze_ns) {
  std::vector<TraceFacts> facts;
  analyze_ns = 0;
  for (const Profile& profile : w.profiles) {
    trace::ProgramTrace program = workload::make_program_trace(profile);
    trace::IdealProgramStats stats;
    analyze_ns += tracer.time("trace.analyze_program", -1, [&] {
      stats = trace::analyze_program(program);
    });
    TraceFacts f;
    for (const trace::IdealProcStats& p : stats.per_proc) {
      f.lock_pairs += p.lock_pairs;
      f.events += p.refs_all + p.barriers + 2 * p.lock_pairs;
    }
    facts.push_back(f);
  }
  return facts;
}

// ---------------------------------------------------------------------------
// One cell, one pass.

/// Simulated layer counts of one cell (identical on every repetition).
struct LayerCounts {
  std::uint64_t read_hits = 0, reads = 0, write_hits = 0, writes = 0;
  std::uint64_t c2c = 0, txns = 0, readx = 0, upgrades = 0;
  std::uint64_t mem_reads = 0, writebacks = 0, busy_cycles = 0;
  std::uint64_t grants = 0, grant_wait_max = 0;
  double grant_wait_sum = 0.0;
  std::uint64_t acquisitions = 0, transfers = 0, lock_ops = 0;
  double transfer_cycles_sum = 0.0, waiters_sum = 0.0, hold_sum = 0.0;
  std::uint64_t transfer_samples = 0, waiter_samples = 0, hold_samples = 0;
  std::uint64_t run_cycles = 0, stepped = 0, spans = 0, span_cycles = 0;
  std::uint64_t procs = 0, stall_lock = 0, stalls = 0;
  double util_sum = 0.0;  // per-processor utilizations

  void add(const LayerCounts& o) {
    read_hits += o.read_hits;
    reads += o.reads;
    write_hits += o.write_hits;
    writes += o.writes;
    c2c += o.c2c;
    txns += o.txns;
    readx += o.readx;
    upgrades += o.upgrades;
    mem_reads += o.mem_reads;
    writebacks += o.writebacks;
    busy_cycles += o.busy_cycles;
    grants += o.grants;
    grant_wait_max = std::max(grant_wait_max, o.grant_wait_max);
    grant_wait_sum += o.grant_wait_sum;
    acquisitions += o.acquisitions;
    transfers += o.transfers;
    lock_ops += o.lock_ops;
    transfer_cycles_sum += o.transfer_cycles_sum;
    waiters_sum += o.waiters_sum;
    hold_sum += o.hold_sum;
    transfer_samples += o.transfer_samples;
    waiter_samples += o.waiter_samples;
    hold_samples += o.hold_samples;
    run_cycles += o.run_cycles;
    stepped += o.stepped;
    spans += o.spans;
    span_cycles += o.span_cycles;
    procs += o.procs;
    stall_lock += o.stall_lock;
    stalls += o.stalls;
    util_sum += o.util_sum;
  }
};

LayerCounts layer_counts(const core::Simulator& sim,
                         const core::SimulationResult& r) {
  LayerCounts c;
  for (std::uint32_t p = 0; p < r.num_procs; ++p) {
    const cache::CacheStats& s = sim.cache_of(p).stats();
    c.read_hits += s.ifetch_hits + s.read_hits;
    c.reads += s.ifetch_hits + s.ifetch_misses + s.read_hits + s.read_misses;
    c.write_hits += s.write_hits;
    c.writes += s.write_hits + s.write_misses;
  }
  c.c2c = r.traffic.c2c_supplies;
  c.txns = r.traffic.total();
  c.readx = r.traffic.readx;
  c.upgrades = r.traffic.upgrades;
  c.mem_reads = r.traffic.memory_reads;
  c.writebacks = r.traffic.writebacks;
  c.busy_cycles = sim.bus().busy_cycles();
  c.grants = r.discipline.grant_wait.count();
  c.grant_wait_sum = r.discipline.grant_wait.sum();
  c.grant_wait_max = r.discipline.max_grant_wait;
  c.acquisitions = r.locks.acquisitions;
  c.transfers = r.locks.transfers;
  c.lock_ops = r.traffic.lock_ops;
  c.transfer_cycles_sum = r.locks.transfer_cycles.sum();
  c.transfer_samples = r.locks.transfer_cycles.count();
  c.waiters_sum = r.locks.waiters_at_transfer.sum();
  c.waiter_samples = r.locks.waiters_at_transfer.count();
  c.hold_sum = r.locks.hold_cycles.sum();
  c.hold_samples = r.locks.hold_cycles.count();
  c.run_cycles = r.run_time;
  c.stepped = sim.des_stats().stepped_cycles;
  c.spans = sim.des_stats().spans;
  c.span_cycles = sim.des_stats().span_cycles;
  c.procs = r.num_procs;
  for (const core::ProcResult& p : r.per_proc) {
    c.stall_lock += p.stall_lock;
    c.stalls += p.total_stalls();
    c.util_sum += p.utilization;
  }
  return c;
}

struct PassOptions {
  core::EngineKind engine = core::EngineKind::kDes;
  bool observers = true;  // honour Cell::observed; false forces them off
  bool self_profile = false;
};

struct CellOutcome {
  std::string error;   // first failed check; empty when the cell passed
  std::string digest;  // exhaustive rendering of the simulated result
  std::string resolved;  // engine / bus discipline / memory model in effect
  core::SimulationResult result;
  LayerCounts counts;
  std::int64_t make_ns = 0, construct_ns = 0, run_ns = 0, render_ns = 0;
  std::uint64_t metrics_bytes = 0, trace_bytes = 0;
  std::int64_t event_loop_ns = 0;  // SelfProfiler, when attached
};

/// The simulated-result checks every timed cell must pass.
std::string check_cell(const core::Simulator& sim,
                       const core::SimulationResult& r, core::EngineKind engine,
                       const TraceFacts& facts) {
  if (sim.engine() != engine) {
    return std::string("resolved engine ") + core::engine_name(sim.engine()) +
           ", expected " + core::engine_name(engine);
  }
  if (sim.bus_discipline().kind() != bus::DisciplineKind::kRoundRobin) {
    return std::string("resolved bus discipline ") +
           sim.bus_discipline().name();
  }
  if (sim.mem_model() != core::MemModelKind::kBus) {
    return std::string("resolved memory model ") +
           core::mem_model_name(sim.mem_model());
  }
  std::uint64_t last = 0;
  for (std::size_t p = 0; p < r.per_proc.size(); ++p) {
    const core::ProcResult& pr = r.per_proc[p];
    if (pr.work_cycles + pr.total_stalls() != pr.completion_cycle) {
      return "proc " + std::to_string(p) + ": work + stalls " +
             std::to_string(pr.work_cycles + pr.total_stalls()) +
             " != completion " + std::to_string(pr.completion_cycle);
    }
    last = std::max(last, pr.completion_cycle);
  }
  if (r.run_time != last) {
    return "run_time " + std::to_string(r.run_time) +
           " != last completion " + std::to_string(last);
  }
  if (r.locks.acquisitions != facts.lock_pairs) {
    return "acquisitions " + std::to_string(r.locks.acquisitions) +
           " != trace lock pairs " + std::to_string(facts.lock_pairs);
  }
  return "";
}

core::MachineConfig cell_config(const Cell& cell, const PassOptions& opt) {
  core::MachineConfig cfg = cell.config;
  cfg.engine = opt.engine;
  cfg.fast_forward = false;  // the tick reference steps every cycle
  cfg.metrics.enabled = opt.observers && cell.observed;
  cfg.trace.enabled = cfg.metrics.enabled;
  return cfg;
}

/// Set-up only, as a pass does it: every cell's trace and Simulator are
/// built and dropped without running.  Returns the summed host ns.
std::int64_t setup_round(const Workload& w, Tracer& tracer) {
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    const core::MachineConfig cfg = cell_config(w.cells[i], PassOptions{});
    trace::ProgramTrace program;
    ns += tracer.time("workload.make_program_trace", id, [&] {
      program = workload::make_program_trace(w.profiles[w.cells[i].profile]);
    });
    std::unique_ptr<core::Simulator> sim;
    ns += tracer.time("core.Simulator", id, [&] {
      sim = std::make_unique<core::Simulator>(cfg, program);
    });
  }
  return ns;
}

CellOutcome run_cell(const Workload& w, std::size_t index,
                     const PassOptions& opt, const TraceFacts& facts,
                     Tracer& tracer) {
  const Cell& cell = w.cells[index];
  const auto id = static_cast<std::int32_t>(index);
  CellOutcome out;
  try {
    const core::MachineConfig cfg = cell_config(cell, opt);
    const bool observed = cfg.metrics.enabled;

    trace::ProgramTrace program;
    out.make_ns = tracer.time("workload.make_program_trace", id, [&] {
      program = workload::make_program_trace(w.profiles[cell.profile]);
    });
    std::unique_ptr<core::Simulator> sim;
    out.construct_ns = tracer.time("core.Simulator", id, [&] {
      sim = std::make_unique<core::Simulator>(cfg, program);
    });
    std::optional<obs::ChromeTraceSink> chrome;
    if (obs::EventRecorder* rec = sim->recorder()) {
      chrome.emplace(cell.label, cfg.num_procs);
      rec->add_sink(&*chrome);
    }
    std::optional<obs::SelfProfiler> profiler;
    if (opt.self_profile) {
      profiler.emplace();
      sim->set_self_profiler(&*profiler);
    }
    out.run_ns = tracer.time("core.Simulator::run", id,
                             [&] { out.result = sim->run(); });
    if (observed) {
      out.render_ns = tracer.time("obs.render", id, [&] {
        const obs::MetricsMeta meta{out.result.program, out.result.scheme,
                                    out.result.consistency,
                                    out.result.num_procs, out.result.run_time};
        out.metrics_bytes = obs::metrics_to_json(*sim->metrics(), meta).size();
        out.trace_bytes = chrome->finish().size();
      });
    }
    if (profiler) {
      out.event_loop_ns = profiler->snapshot().ns[static_cast<std::size_t>(
          obs::SelfProfiler::Phase::kEventLoop)];
    }
    tracer.time("bench.check", id, [&] {
      out.resolved = std::string(core::engine_name(sim->engine())) + "/" +
                     sim->bus_discipline().name() + "/" +
                     core::mem_model_name(sim->mem_model());
      out.error = check_cell(*sim, out.result, opt.engine, facts);
      out.digest = fuzz::render_result(out.result);
      out.counts = layer_counts(*sim, out.result);
    });
  } catch (const std::exception& e) {
    out.error = std::string("exception: ") + e.what();
  }
  return out;
}

// ---------------------------------------------------------------------------
// One pass over every cell of a workload.

struct PassOutcome {
  std::vector<CellOutcome> cells;
  std::int64_t wall_ns = 0;
  std::int64_t report_ns = 0;

  template <typename F>
  [[nodiscard]] std::int64_t sum(F field) const {
    std::int64_t s = 0;
    for (const CellOutcome& c : cells) s += field(c);
    return s;
  }
  [[nodiscard]] std::int64_t setup_ns() const {
    return sum([](const CellOutcome& c) { return c.make_ns + c.construct_ns; });
  }
  [[nodiscard]] std::int64_t run_ns() const {
    return sum([](const CellOutcome& c) { return c.run_ns; });
  }
};

/// Renders the paper's Tables 3-8 from the cells' results.
std::size_t render_paper_tables(const Workload& w,
                                const std::vector<CellOutcome>& cells) {
  std::vector<core::SimulationResult> q_seq, t_seq, q_weak;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const core::MachineConfig& c = w.cells[i].config;
    const bool seq = c.consistency == bus::ConsistencyModel::kSequential;
    if (c.lock_scheme == sync::SchemeKind::kQueuing) {
      (seq ? q_seq : q_weak).push_back(cells[i].result);
    } else if (seq) {
      t_seq.push_back(cells[i].result);
    }
  }
  std::size_t bytes = 0;
  bytes += report::table_runtime(3, q_seq, kPaperScale).render().size();
  bytes += report::table_contention(4, q_seq, kPaperScale).render().size();
  bytes += report::table_runtime(5, t_seq, kPaperScale).render().size();
  bytes += report::table_contention(6, t_seq, kPaperScale).render().size();
  bytes += report::table7_weak(q_weak, q_seq, kPaperScale).render().size();
  bytes += report::table_contention(8, q_weak, kPaperScale).render().size();
  return bytes;
}

PassOutcome run_pass(const Workload& w, const PassOptions& opt,
                     const std::vector<TraceFacts>& facts, Tracer& tracer) {
  PassOutcome pass;
  pass.wall_ns = tracer.time("bench.pass", -1, [&] {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      pass.cells.push_back(
          run_cell(w, i, opt, facts[w.cells[i].profile], tracer));
    }
    const bool all_ok =
        std::all_of(pass.cells.begin(), pass.cells.end(),
                    [](const CellOutcome& c) { return c.error.empty(); });
    if (w.renders_report && all_ok) {
      pass.report_ns = tracer.time("report.render", -1, [&] {
        g_sink = g_sink + render_paper_tables(w, pass.cells);
      });
    }
  });
  return pass;
}

// ---------------------------------------------------------------------------
// Accuracy against the paper's published tables (report::paper_reference()).

struct Accuracy {
  double paper_err = 0.0;             // median relative error
  double ttas_slowdown_err_pp = 0.0;  // mean |sim - paper| over Grav, Pdsa
};

Accuracy accuracy(const Workload& w, const std::vector<CellOutcome>& cells) {
  using Result = core::SimulationResult;
  auto find = [&](const std::string& program, sync::SchemeKind scheme,
                  bus::ConsistencyModel model) -> const Result* {
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Cell& c = w.cells[i];
      if (w.profiles[c.profile].name == program &&
          c.config.lock_scheme == scheme && c.config.consistency == model) {
        return &cells[i].result;
      }
    }
    return nullptr;
  };
  constexpr auto kQ = sync::SchemeKind::kQueuing;
  constexpr auto kT = sync::SchemeKind::kTtas;
  constexpr auto kSeq = bus::ConsistencyModel::kSequential;
  constexpr auto kWeak = bus::ConsistencyModel::kWeak;

  std::vector<double> errs;
  auto add = [&errs](double sim, double paper) {
    if (paper > 0.0) errs.push_back(std::fabs(sim - paper) / paper);
  };
  Accuracy acc;
  double slowdown_err = 0.0;
  int slowdown_programs = 0;
  for (const report::PaperReference& ref : report::paper_reference()) {
    const core::SimulationResult* q = find(ref.name, kQ, kSeq);
    const core::SimulationResult* t = find(ref.name, kT, kSeq);
    const core::SimulationResult* qw = find(ref.name, kQ, kWeak);
    if (q == nullptr || t == nullptr || qw == nullptr) continue;
    // Scale-invariant columns: utilization (Tables 3/5/7) and waiters at
    // transfer (Tables 4/6/8).
    add(100.0 * q->avg_utilization, ref.q_util);
    add(100.0 * t->avg_utilization, ref.t_util);
    add(100.0 * qw->avg_utilization, ref.w_util);
    if (ref.has_locks) {
      add(q->locks.waiters_at_transfer.mean(), ref.q_waiters);
      add(t->locks.waiters_at_transfer.mean(), ref.t_waiters);
      add(qw->locks.waiters_at_transfer.mean(), ref.w_waiters);
    }
    const std::string name = ref.name;
    if (name == "Grav" || name == "Pdsa") {
      const double sim = 100.0 * ratio(static_cast<double>(t->run_time) -
                                           static_cast<double>(q->run_time),
                                       static_cast<double>(q->run_time));
      const double paper =
          100.0 * (ref.t_runtime - ref.q_runtime) / ref.q_runtime;
      slowdown_err += std::fabs(sim - paper);
      ++slowdown_programs;
    }
  }
  acc.paper_err = median(errs);
  acc.ttas_slowdown_err_pp = ratio(slowdown_err, slowdown_programs);
  return acc;
}

// ---------------------------------------------------------------------------
// Per-layer kernels, fed with the workload's own P and reference streams.

struct Kernel {
  std::int64_t ns = 0;
  std::uint64_t ops = 0;
  [[nodiscard]] double ns_per_op() const {
    return ratio(static_cast<double>(ns), static_cast<double>(ops));
  }
};

/// Drains a fresh generator per processor: trace synthesis cost per event.
Kernel generator_kernel(const Workload& w, Tracer& tracer) {
  Kernel k;
  for (const Profile& profile : w.profiles) {
    for (std::uint32_t p = 0; p < profile.num_procs; ++p) {
      workload::ProfileTraceSource source(profile, p);
      trace::Event e;
      std::uint64_t n = 0;
      std::uint64_t acc = 0;
      k.ns += tracer.time("kernel.workload.next", -1, [&] {
        while (source.next(e)) {
          acc += e.addr;
          ++n;
        }
      });
      k.ops += n;
      g_sink = g_sink + acc;
    }
  }
  return k;
}

cache::AccessClass access_class(trace::Op op) {
  if (op == trace::Op::kIFetch) return cache::AccessClass::kIFetch;
  return op == trace::Op::kLoad ? cache::AccessClass::kRead
                                : cache::AccessClass::kWrite;
}

struct CacheKernels {
  Kernel access;  // Cache::access (+ allocate/fill on a miss) per reference
  Kernel snoop;   // Cache::snoop per (miss, other cache)
};

/// Replays each processor's data and instruction references through its own
/// standalone cache, then snoops every miss on the P-1 other caches.
CacheKernels cache_kernels(const Workload& w, Tracer& tracer) {
  CacheKernels k;
  struct Ref {
    std::uint32_t addr;
    cache::AccessClass cls;
  };
  struct Miss {
    std::uint32_t line;
    std::uint32_t proc;
    bool exclusive;
  };
  const cache::CacheConfig config{};
  for (const Profile& profile : w.profiles) {
    const std::uint32_t procs = profile.num_procs;
    std::vector<std::unique_ptr<cache::Cache>> caches;
    for (std::uint32_t p = 0; p < procs; ++p) {
      caches.push_back(std::make_unique<cache::Cache>(config));
    }
    std::vector<Miss> misses;
    std::vector<Ref> refs;
    for (std::uint32_t p = 0; p < procs; ++p) {
      refs.clear();
      workload::ProfileTraceSource source(profile, p);
      trace::Event e;
      while (source.next(e)) {
        if (!trace::is_memory_ref(e.op)) continue;
        refs.push_back({e.addr, access_class(e.op)});
      }
      cache::Cache& c = *caches[p];
      k.access.ns += tracer.time("kernel.cache.access", -1, [&] {
        for (const Ref& r : refs) {
          if (c.access(r.addr, r.cls).hit) continue;
          const std::uint32_t line = config.line_addr(r.addr);
          const bool write = r.cls == cache::AccessClass::kWrite;
          if (c.allocate(line).ok) {
            c.fill(line, write ? cache::LineState::kModified
                               : cache::LineState::kExclusive);
          }
          misses.push_back({line, p, write});
        }
      });
      k.access.ops += refs.size();
    }
    std::uint64_t had = 0;
    k.snoop.ns += tracer.time("kernel.cache.snoop", -1, [&] {
      for (const Miss& m : misses) {
        for (std::uint32_t q = 0; q < procs; ++q) {
          if (q == m.proc) continue;
          had += caches[q]->snoop(m.line, m.exclusive).had_line;
        }
      }
    });
    k.snoop.ops += misses.size() * (procs - 1);
    g_sink = g_sink + had;
  }
  return k;
}

/// core::EventQueue schedule/take_due/set_floor at one cell's source count.
/// Only computing processors sit in the simulator's queue, so the kernel keeps
/// P x utilization sources live, and draws their re-schedule delays so that
/// event cycles cover the cell's measured share of simulated cycles (the rest
/// are the spans DES jumps).
Kernel eventq_kernel(std::uint32_t sources, const LayerCounts& c,
                     Tracer& tracer, std::int32_t cell) {
  constexpr std::uint64_t kIterations = 1u << 17;
  const double density = ratio(static_cast<double>(c.stepped),
                               static_cast<double>(c.run_cycles));
  const auto live = static_cast<std::uint32_t>(std::clamp(
      std::lround(c.util_sum), 1L, static_cast<long>(sources)));
  const double mean_delay =
      std::max(1.0, ratio(static_cast<double>(live), density));
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<std::uint64_t> draw(
      1, std::max<std::uint64_t>(
             1, static_cast<std::uint64_t>(2.0 * mean_delay) - 1));
  std::vector<std::uint64_t> delays(1024);
  for (std::uint64_t& d : delays) d = draw(rng);

  core::EventQueue q(sources);
  std::vector<std::uint64_t> due((sources + 63) / 64);
  for (std::uint32_t s = 0; s < live; ++s) q.schedule(s, delays[s % 1024]);
  std::size_t k = 0;
  Kernel out;
  out.ns = tracer.time("kernel.core.eventq", cell, [&] {
    for (std::uint64_t it = 0; it < kIterations; ++it) {
      const std::uint64_t now = q.min_key();
      q.set_floor(now);
      std::fill(due.begin(), due.end(), 0);
      q.take_due(now, due.data());
      for (std::size_t wi = 0; wi < due.size(); ++wi) {
        for (std::uint64_t bits = due[wi]; bits != 0; bits &= bits - 1) {
          const auto s = static_cast<std::uint32_t>(
              wi * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
          q.schedule(s, now + delays[k++ % 1024]);
        }
      }
    }
  });
  out.ops = kIterations;
  g_sink = g_sink + q.min_key();
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const Workload& w,
                 const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "error: cannot write spans to " << path << "\n";
    std::exit(1);
  }
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string cell =
        s.cell >= 0 ? w.cells[static_cast<std::size_t>(s.cell)].label : "";
    out << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"cell_id\": " << s.cell << ", \"cell\": \"" << cell << "\"}}"
        << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  if (!out.flush()) {
    std::cerr << "error: cannot write spans to " << path << "\n";
    std::exit(1);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string spans;  // traced runs: span file path
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: perfbench_driver --workload "
               "paper|wide-bus|sparse-observed [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans FILE]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " expects a non-negative integer, got \"" + text + "\"");
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_u64(flag, value);
      if (a.seconds == 0 || a.seconds > 3600) {
        usage("--seconds must be 1..3600");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "error: refusing to run with " << var
                << " set: it would re-route the benchmark's cells\n";
      return 2;
    }
  }

  Workload w;
  if (args.workload == "paper") {
    w = paper_workload(args.seed, true);
  } else if (args.workload == "wide-bus") {
    w = wide_bus_workload(args.seed);
  } else if (args.workload == "sparse-observed") {
    w = sparse_observed_workload(args.seed);
  } else {
    usage("unknown workload \"" + args.workload + "\"");
  }

  Tracer tracer;
  tracer.set_enabled(args.trace);
  std::int64_t analyze_ns = 0;
  const std::vector<TraceFacts> facts = analyze(w, tracer, analyze_ns);
  std::uint64_t events_per_pass = 0;
  for (const Cell& c : w.cells) events_per_pass += facts[c.profile].events;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> digests;  // first pass, per cell
  std::vector<std::string> errors;
  // Counts every cell of a pass; a cell fails on a check, or when its
  // simulated result differs from the first pass's.
  auto tally = [&](const Workload& wl, const PassOutcome& pass,
                   const std::vector<std::string>& ref, const char* what) {
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      const CellOutcome& c = pass.cells[i];
      ++attempted;
      std::string err = c.error;
      if (err.empty() && !ref.empty() && c.digest != ref[i]) {
        err = std::string("simulated result differs from the first pass (") +
              what + ")";
      }
      if (!err.empty()) {
        ++failed;
        errors.push_back(wl.cells[i].label + ": " + err);
      }
    }
  };

  // Timed passes.  An untraced run times untraced passes only; a traced run
  // alternates untraced and traced passes so bench.trace_overhead compares
  // like with like.
  const PassOptions des_opts;
  // setup_s is a median over these set-up-only rounds and every pass's
  // set-up, so it rests on enough samples even when passes are few.
  std::vector<double> setup;
  if (!args.trace) {
    for (int round = 0; round < kSetupRounds; ++round) {
      setup.push_back(static_cast<double>(setup_round(w, tracer)) / 1e9);
    }
  }
  std::vector<PassOutcome> passes;         // untraced
  std::vector<PassOutcome> traced_passes;  // traced run only
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  while (passes.empty() || now_ns() - start < budget) {
    tracer.set_enabled(false);
    passes.push_back(run_pass(w, des_opts, facts, tracer));
    if (digests.empty()) {
      for (const CellOutcome& c : passes.back().cells) {
        digests.push_back(c.digest);
      }
      tally(w, passes.back(), {}, "");
    } else {
      tally(w, passes.back(), digests, "repetition");
    }
    if (args.trace) {
      tracer.set_enabled(true);
      traced_passes.push_back(run_pass(w, des_opts, facts, tracer));
      tally(w, traced_passes.back(), digests, "traced repetition");
    }
  }

  LayerCounts counts;
  for (const CellOutcome& c : passes.front().cells) counts.add(c.counts);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> wall, cps, rps;
    for (const PassOutcome& p : passes) {
      setup.push_back(static_cast<double>(p.setup_ns()) / 1e9);
      wall.push_back(static_cast<double>(p.wall_ns) / 1e9);
      const double run_s = static_cast<double>(p.run_ns()) / 1e9;
      cps.push_back(ratio(static_cast<double>(counts.run_cycles), run_s));
      rps.push_back(ratio(static_cast<double>(events_per_pass), run_s));
    }
    // Accuracy: from the workload's own cells on `paper`; the other
    // workloads run the paper cells the tables need, untimed, after the
    // measured passes.
    Accuracy acc;
    if (w.name == "paper") {
      acc = accuracy(w, passes.front().cells);
    } else {
      const Workload probe = paper_workload(args.seed, false);
      std::int64_t probe_analyze_ns = 0;
      const std::vector<TraceFacts> probe_facts =
          analyze(probe, tracer, probe_analyze_ns);
      const PassOutcome p = run_pass(probe, des_opts, probe_facts, tracer);
      tally(probe, p, {}, "");
      acc = accuracy(probe, p.cells);
    }
    metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"sim_cycles_per_s", median(cps), "cycles/s"},
        {"sim_refs_per_s", median(rps), "refs/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"passed_frac",
         1.0 - ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
         "ratio"},
        {"paper_err", acc.paper_err, "ratio"},
        {"ttas_slowdown_err_pp", acc.ttas_slowdown_err_pp, "points"},
    };
  } else {
    // Per-layer numbers come from the traced passes; kernels and reference
    // re-runs follow them, still traced.
    tracer.set_enabled(true);
    auto med_ns = [&](auto field) {
      std::vector<std::int64_t> v;
      for (const PassOutcome& p : traced_passes) v.push_back(field(p));
      return median(v);
    };
    const double run_ns =
        med_ns([](const PassOutcome& p) { return p.run_ns(); });
    std::vector<std::int64_t> untraced_run;
    for (const PassOutcome& p : passes) untraced_run.push_back(p.run_ns());
    const double trace_overhead = ratio(run_ns, median(untraced_run)) - 1.0;

    const Kernel gen = generator_kernel(w, tracer);
    // The drained generators must yield exactly the events sim_refs_per_s
    // counts from the ideal analysis.
    std::uint64_t analyzed_events = 0;
    for (const TraceFacts& f : facts) analyzed_events += f.events;
    ++attempted;
    if (gen.ops != analyzed_events) {
      ++failed;
      errors.push_back("generators yield " + std::to_string(gen.ops) +
                       " events, analysis counted " +
                       std::to_string(analyzed_events));
    }
    const CacheKernels ck = cache_kernels(w, tracer);
    Kernel eq;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Kernel k = eventq_kernel(w.cells[i].config.num_procs,
                                     passes.front().cells[i].counts, tracer,
                                     static_cast<std::int32_t>(i));
      eq.ns += k.ns;
      eq.ops += k.ops;
    }

    // Host time in the DES event loop, from the engine's own self-profiler.
    PassOptions prof_opts;
    prof_opts.self_profile = true;
    const PassOutcome prof = run_pass(w, prof_opts, facts, tracer);
    tally(w, prof, digests, "self-profiled");
    const std::int64_t event_loop_ns =
        prof.sum([](const CellOutcome& c) { return c.event_loop_ns; });

    // The per-cycle tick reference engine must reproduce every cell.
    PassOptions tick_opts;
    tick_opts.engine = core::EngineKind::kTick;
    tally(w, run_pass(w, tick_opts, facts, tracer), digests, "tick engine");

    // Observer cost: the same cells with the metrics registry and the
    // Chrome-trace recorder off.
    bool any_observed = false;
    for (const Cell& c : w.cells) any_observed = any_observed || c.observed;
    double run_overhead = 0.0;
    if (any_observed) {
      PassOptions off_opts;
      off_opts.observers = false;
      const PassOutcome off = run_pass(w, off_opts, facts, tracer);
      tally(w, off, digests, "observers off");
      run_overhead = ratio(median(untraced_run),
                           static_cast<double>(off.run_ns())) - 1.0;
    }

    std::uint64_t metrics_bytes = 0, trace_bytes = 0;
    for (const CellOutcome& c : passes.front().cells) {
      metrics_bytes += c.metrics_bytes;
      trace_bytes += c.trace_bytes;
    }
    const double gen_ns = gen.ns_per_op();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"workload.events", d(events_per_pass), "count"},
        {"workload.ns_per_event", gen_ns, "ns"},
        {"workload.share", ratio(d(events_per_pass) * gen_ns, run_ns), "ratio"},
        {"trace.analyze_s", static_cast<double>(analyze_ns) / 1e9, "s"},
        {"cache.read_hit_ratio", ratio(d(counts.read_hits), d(counts.reads)),
         "ratio"},
        {"cache.write_hit_ratio",
         ratio(d(counts.write_hits), d(counts.writes)), "ratio"},
        {"cache.c2c_supplies", d(counts.c2c), "count"},
        {"cache.access_ns", ck.access.ns_per_op(), "ns"},
        {"cache.snoop_ns", ck.snoop.ns_per_op(), "ns"},
        {"bus.txns", d(counts.txns), "count"},
        {"bus.readx", d(counts.readx), "count"},
        {"bus.upgrades", d(counts.upgrades), "count"},
        {"bus.utilization", ratio(d(counts.busy_cycles), d(counts.run_cycles)),
         "ratio"},
        {"bus.grant_wait_mean", ratio(counts.grant_wait_sum, d(counts.grants)),
         "cycles"},
        {"bus.grant_wait_max", d(counts.grant_wait_max), "cycles"},
        {"bus.host_ns_per_txn", ratio(run_ns, d(counts.txns)), "ns"},
        {"mem.reads", d(counts.mem_reads), "count"},
        {"mem.writebacks", d(counts.writebacks), "count"},
        {"sync.acquisitions", d(counts.acquisitions), "count"},
        {"sync.transfers", d(counts.transfers), "count"},
        {"sync.transfer_cycles_mean",
         ratio(counts.transfer_cycles_sum, d(counts.transfer_samples)),
         "cycles"},
        {"sync.waiters_at_transfer_mean",
         ratio(counts.waiters_sum, d(counts.waiter_samples)), "count"},
        {"sync.hold_cycles_mean",
         ratio(counts.hold_sum, d(counts.hold_samples)), "cycles"},
        {"sync.lock_ops", d(counts.lock_ops), "count"},
        {"core.run_cycles", d(counts.run_cycles), "cycles"},
        {"core.stepped_cycles", d(counts.stepped), "cycles"},
        {"core.spans", d(counts.spans), "count"},
        {"core.span_cycles", d(counts.span_cycles), "cycles"},
        {"core.utilization", ratio(counts.util_sum, d(counts.procs)), "ratio"},
        {"core.stall_lock_pct",
         100.0 * ratio(d(counts.stall_lock), d(counts.stalls)), "%"},
        {"core.ns_per_stepped_cycle", ratio(run_ns, d(counts.stepped)), "ns"},
        {"core.eventq_ns", eq.ns_per_op(), "ns"},
        {"core.construct_s",
         med_ns([](const PassOutcome& p) {
           return p.sum([](const CellOutcome& c) { return c.construct_ns; });
         }) / 1e9,
         "s"},
        {"obs.metrics_bytes", d(metrics_bytes), "bytes"},
        {"obs.trace_bytes", d(trace_bytes), "bytes"},
        {"obs.render_s",
         med_ns([](const PassOutcome& p) {
           return p.sum([](const CellOutcome& c) { return c.render_ns; });
         }) / 1e9,
         "s"},
        {"obs.run_overhead", run_overhead, "ratio"},
        {"obs.event_loop_s", static_cast<double>(event_loop_ns) / 1e9, "s"},
        {"report.render_s",
         med_ns([](const PassOutcome& p) { return p.report_ns; }) / 1e9, "s"},
        {"bench.trace_overhead", trace_overhead, "ratio"},
    };
    if (!args.spans.empty()) write_spans(args.spans, w, tracer.spans());
  }

  // Human-readable summary, then the result line.
  const std::size_t samples = args.trace ? traced_passes.size() : passes.size();
  std::cout << "perfbench: workload " << w.name << ", seed "
            << (args.seed ? std::to_string(*args.seed) : "calibrated") << ", "
            << w.cells.size() << " cells; timings are medians over "
            << samples << (args.trace ? " traced" : "") << " pass(es); "
            << attempted << " checks, " << failed << " failed\n";
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellOutcome& c = passes.front().cells[i];
    std::cout << "  cell " << w.cells[i].label << " (" << c.resolved
              << "): run_cycles " << c.result.run_time << ", run() "
              << static_cast<double>(c.run_ns) / 1e6 << " ms\n";
  }
  for (const PassOutcome& p : args.trace ? traced_passes : passes) {
    std::cout << "  pass: wall " << static_cast<double>(p.wall_ns) / 1e9
              << " s, setup " << static_cast<double>(p.setup_ns()) / 1e9
              << " s, run() " << static_cast<double>(p.run_ns()) / 1e9
              << " s\n";
  }
  for (const std::string& e : errors) std::cout << "  FAILED " << e << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  if (!args.trace) {
    std::cout << "  run_cycles per pass = " << counts.run_cycles << "\n";
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

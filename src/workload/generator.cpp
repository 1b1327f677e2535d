#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "trace/address_map.hpp"
#include "util/assert.hpp"

namespace syncpat::workload {

using trace::AddressMap;
using trace::Event;
using trace::Op;

namespace {
constexpr std::uint32_t kCodeWorkingSet = 16 * 1024;  // loop working set
constexpr double kJumpProbability = 1.0 / 64.0;       // taken-branch rate
constexpr double kLockOpGap = 2.0;                    // cycles per lock insn
// Budget for the per-processor cold ("streaming array") slices: they must
// stay below the critical-section data regions at shared offset 0x2000'0000,
// with headroom for the hot pools stacked on top of them.  384 MiB keeps
// every historical configuration (cold slices were never clamped below
// P = 97) bit-identical.
constexpr std::uint64_t kColdRegionBudget = 0x1800'0000ull;
}  // namespace

ProfileTraceSource::ProfileTraceSource(const BenchmarkProfile& profile,
                                       std::uint32_t proc)
    : profile_(profile), proc_(proc) {
  ProfileTraceSource::reset();
}

void ProfileTraceSource::reset() {
  set_block(nullptr, nullptr);
  block_target_ = 1;

  cur_ = Cursor();
  cur_.rng.reseed(profile_.seed * 0x9e3779b97f4a7c15ULL + proc_ + 1);
  cur_.pc = AddressMap::code_addr((proc_ * 4096) % kCodeWorkingSet);
  cur_.last_shared_line = AddressMap::shared_addr(0);
  // Historically this computed proc_ * cold_region_bytes unconditionally,
  // which overflowed the shared region (assert) for large P even with the
  // cold stream disabled.  The clamped slice is 0 when there is no cold
  // stream and last_cold_addr is then never read before a cold load sets it.
  cold_slice_ = cold_slice_bytes();
  cur_.last_cold_addr = AddressMap::shared_addr(proc_ * cold_slice_);
  barrier_interval_ =
      profile_.locking.barriers_per_proc > 0
          ? std::max<std::uint64_t>(
                1, profile_.refs_per_proc /
                       (profile_.locking.barriers_per_proc + 1))
          : 0;
  schedule_barrier(cur_);

  const double mean_gap = std::max(1.0, profile_.work_cycles_per_ref);
  const double gap_log1m_p = mean_gap > 1.0 ? std::log1p(-1.0 / mean_gap) : 0.0;
  draw_gaps_ = gap_log1m_p != 0.0;
  gap_sampler_ = draw_gaps_ ? util::GeometricSampler(gap_log1m_p)
                            : util::GeometricSampler();
  skewed_ = profile_.cpi_skew > 0.0 && proc_ == profile_.skew_proc;
  skew_factor_ = 1.0 + profile_.cpi_skew;

  const LocalityModel& loc = profile_.locality;
  const LockingModel& lk = profile_.locking;
  using util::Rng;
  data_threshold_ = Rng::chance_threshold(profile_.data_ref_fraction);
  jump_threshold_ = Rng::chance_threshold(kJumpProbability);
  write_threshold_ = Rng::chance_threshold(loc.write_fraction);
  private_threshold_ = Rng::chance_threshold(loc.private_fraction);
  cold_threshold_ =
      loc.cold_fraction > 0.0
          ? Rng::chance_threshold(loc.private_fraction + loc.cold_fraction)
          : 0;
  reref_threshold_ = Rng::chance_threshold(loc.shared_rerefs);
  affinity_threshold_ = Rng::chance_threshold(loc.shared_affinity);
  cs_region_threshold_ = Rng::chance_threshold(lk.cs_region_bias);
  short_threshold_ = Rng::chance_threshold(lk.short_fraction);
  dominant_threshold_ = Rng::chance_threshold(lk.dominant_weight);

  force_refs_per_section_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(lk.cs_work_cycles / mean_gap) + 2);
  double cs_probability = 0.0;     // per normal ref: start a critical section
  double burst_probability = 0.0;  // same, inside the burst window
  double nested_probability = 0.0; // per outer CS: contains an inner pair
  burst_window_refs_ = 0;
  outer_target_ = lk.pairs_per_proc - lk.nested_per_proc;
  if (outer_target_ > 0) {
    // Expected references spent inside critical sections, so the per-normal-
    // reference start probability lands the right number of sections.
    const double mean_cs = (1.0 - lk.short_fraction) * lk.cs_work_cycles +
                           lk.short_fraction * lk.short_cs_cycles;
    const double body_refs = mean_cs / mean_gap;
    const double cs_refs = static_cast<double>(outer_target_) * body_refs;
    const double normal_refs =
        std::max(1.0, static_cast<double>(profile_.refs_per_proc) - cs_refs);
    nested_probability =
        static_cast<double>(lk.nested_per_proc) / static_cast<double>(outer_target_);

    const double burst_outer =
        lk.burst_fraction * static_cast<double>(outer_target_);
    burst_window_refs_ = static_cast<std::uint64_t>(
        lk.burst_window * static_cast<double>(profile_.refs_per_proc));
    const double burst_normal = std::max(
        1.0, static_cast<double>(burst_window_refs_) - burst_outer * body_refs);
    burst_probability = burst_outer > 0.0 ? burst_outer / burst_normal : 0.0;
    cs_probability = (static_cast<double>(outer_target_) - burst_outer) /
                     std::max(1.0, normal_refs - burst_normal);
  }
  cs_threshold_ = Rng::chance_threshold(cs_probability);
  burst_threshold_ = Rng::chance_threshold(burst_probability);
  nested_threshold_ = Rng::chance_threshold(nested_probability);
}

std::uint32_t ProfileTraceSource::cold_slice_bytes() const {
  const LocalityModel& loc = profile_.locality;
  if (loc.cold_fraction <= 0.0) return 0;
  const std::uint64_t want = loc.cold_region_bytes;
  if (want * profile_.num_procs <= kColdRegionBudget) {
    return loc.cold_region_bytes;
  }
  // Scale the per-processor slice down so P slices fit the budget, keeping
  // the streaming-march behavior at any machine size (64-byte floor so a
  // slice always spans whole cache lines).
  const std::uint64_t slice = (kColdRegionBudget / profile_.num_procs) & ~63ull;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(slice, 64));
}

void ProfileTraceSource::schedule_barrier(Cursor& c) const {
  // Barrier thresholds are reference-count based, so every processor emits
  // the same arrival sequence; the rest trail the last reference.
  c.next_barrier_at =
      c.barriers_emitted < profile_.locking.barriers_per_proc
          ? std::min(profile_.refs_per_proc,
                     (c.barriers_emitted + 1) * barrier_interval_)
          : std::numeric_limits<std::uint64_t>::max();
}

// The per-reference helpers are forced inline so that refill()'s local
// Cursor, the RNG state above all, stays in registers across a block.

[[gnu::always_inline]] inline std::uint32_t
ProfileTraceSource::next_gap(util::Rng& rng) const {
  // A mean gap of exactly 1 draws nothing and contributes 0, matching the
  // original per-event computation.
  std::uint64_t gap = 1 + (draw_gaps_ ? gap_sampler_.draw(rng) : 0);
  if (skewed_) {
    gap = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(gap) * skew_factor_));
  }
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(gap, 1u << 20));
}

[[gnu::always_inline]] inline Event
ProfileTraceSource::make_ifetch(Cursor& c) const {
  if (c.rng.chance_below(jump_threshold_)) {
    c.pc = AddressMap::code_addr(
        static_cast<std::uint32_t>(c.rng.below(kCodeWorkingSet / 4)) * 4);
  } else {
    c.pc += 4;
    if (c.pc >= AddressMap::code_addr(kCodeWorkingSet)) {
      c.pc = AddressMap::code_addr(0);
    }
  }
  return Event{c.pc, next_gap(c.rng), Op::kIFetch};
}

[[gnu::always_inline]] inline Event
ProfileTraceSource::make_data_ref(Cursor& c) const {
  const LocalityModel& loc = profile_.locality;
  util::Rng& rng = c.rng;
  const Op op = rng.chance_below(write_threshold_) ? Op::kStore : Op::kLoad;
  const std::uint64_t r = rng.next_u53();

  if (r < private_threshold_) {
    const auto off =
        static_cast<std::uint32_t>(rng.below(loc.private_hot_bytes / 4)) * 4;
    return Event{AddressMap::private_addr(proc_, off), next_gap(rng), op};
  }
  if (r < cold_threshold_) {
    // Streaming march through this processor's slice of a large shared
    // region (Qsort's array).  Stores re-touch the last loaded address —
    // "the reads almost always precede the exchanges of the same lines"
    // (§4.2) — so they hit; loads advance the stream.
    if (op == Op::kStore) {
      // Exchange into the line the last cold load fetched: a write hit.
      return Event{c.last_cold_addr, next_gap(rng), op};
    }
    c.last_cold_addr =
        AddressMap::shared_addr(proc_ * cold_slice_ + c.cold_pos);
    c.cold_pos = (c.cold_pos + loc.cold_stride_bytes) % cold_slice_;
    return Event{c.last_cold_addr, next_gap(rng), op};
  }
  // Hot shared pool, with spatial re-reference locality.
  if (rng.chance_below(reref_threshold_)) {
    return Event{c.last_shared_line +
                     static_cast<std::uint32_t>(rng.below(4)) * 4,
                 next_gap(rng), op};
  }
  const std::uint32_t pool_off =
      static_cast<std::uint32_t>(rng.below(loc.shared_hot_bytes / 16)) * 16;
  // Hot shared data lives above the cold slices so the regions never alias;
  // slice 0 is the common (truly contended) pool, slices 1..P are the
  // per-processor affinity partitions.
  const std::uint32_t hot_base = profile_.num_procs * cold_slice_;
  const std::uint32_t slice = rng.chance_below(affinity_threshold_)
                                  ? (1 + proc_) * loc.shared_hot_bytes
                                  : 0;
  c.last_shared_line = AddressMap::shared_addr(hot_base + slice + pool_off);
  return Event{c.last_shared_line, next_gap(rng), op};
}

[[gnu::always_inline]] inline trace::Event
ProfileTraceSource::make_cs_data_ref(Cursor& c) const {
  const LockingModel& lk = profile_.locking;
  const std::uint32_t off =
      static_cast<std::uint32_t>(c.rng.below(lk.cs_region_bytes / 4)) * 4;
  const Op op =
      c.rng.chance_below(write_threshold_) ? Op::kStore : Op::kLoad;
  return Event{AddressMap::shared_addr(c.section.data_base + off),
               next_gap(c.rng), op};
}

std::uint32_t ProfileTraceSource::pick_lock(util::Rng& rng) const {
  const LockingModel& lk = profile_.locking;
  if (lk.partitioned) {
    // Per-processor lock space: partition locks never collide.
    const auto slot = static_cast<std::uint32_t>(rng.below(lk.num_locks));
    return AddressMap::lock_addr(1 + proc_ * lk.num_locks + slot);
  }
  if (lk.num_locks <= 1 || rng.chance_below(dominant_threshold_)) {
    return AddressMap::lock_addr(0);
  }
  // Uniform over the non-dominant locks, skipping the inner (nested) lock:
  // locks are non-reentrant, so an outer section must never sit on the lock
  // that nested acquisitions take.
  std::uint32_t id;
  do {
    id = 1 + static_cast<std::uint32_t>(rng.below(lk.num_locks - 1));
  } while (id == lk.inner_lock && lk.num_locks > 2);
  if (id == lk.inner_lock) return AddressMap::lock_addr(0);
  return AddressMap::lock_addr(id);
}

void ProfileTraceSource::begin_section(Cursor& c) const {
  const LockingModel& lk = profile_.locking;
  util::Rng& rng = c.rng;
  ++c.outer_emitted;

  // Bimodal sections: a short one always targets lock 0.
  const bool short_section = rng.chance_below(short_threshold_);
  const std::uint32_t lock =
      short_section ? AddressMap::lock_addr(0) : pick_lock(rng);

  // Draw the section's ideal duration and convert to a reference count.
  const double wcpr = std::max(1.0, profile_.work_cycles_per_ref);
  const double mean = short_section ? lk.short_cs_cycles : lk.cs_work_cycles;
  const double duration =
      1.0 + static_cast<double>(rng.exponential_cycles(mean));
  auto body_refs = static_cast<std::uint64_t>(std::llround(duration / wcpr));
  body_refs = std::max<std::uint64_t>(body_refs, 1);

  const std::uint32_t inner = AddressMap::lock_addr(lk.inner_lock);
  const bool nested = rng.chance_below(nested_threshold_) && lock != inner;

  Section& s = c.section;
  s.next_ref = 0;
  // The data the lock protects: a small per-lock region far above the hot
  // pools (offset 0x2000'0000 into the shared segment).
  const std::uint32_t lock_id = (lock - AddressMap::kLockBase) / 64;
  s.data_base =
      0x2000'0000u + lock_id * std::max<std::uint32_t>(lk.cs_region_bytes, 16);
  constexpr auto kGap = static_cast<std::uint32_t>(kLockOpGap);
  s.num_markers = 0;
  s.next_marker = 0;
  s.markers[s.num_markers++] = {0, Event{lock, kGap, Op::kLockAcq}};
  if (nested) {
    // The inner (thread-queue) lock pair nests in the middle, held for about
    // a quarter of the section (Presto's short queue manipulation); its
    // release follows body reference inner_start + inner_len, or the last
    // one when the section is too short.
    const std::uint64_t inner_start = body_refs / 2;
    const std::uint64_t inner_len = std::max<std::uint64_t>(1, body_refs / 4);
    const std::uint64_t release_after =
        std::min(inner_start + inner_len, body_refs - 1);
    s.markers[s.num_markers++] = {inner_start,
                                  Event{inner, kGap, Op::kLockAcq}};
    s.markers[s.num_markers++] = {release_after + 1,
                                  Event{inner, kGap, Op::kLockRel}};
  }
  s.markers[s.num_markers++] = {body_refs, Event{lock, kGap, Op::kLockRel}};
  c.in_section = true;
}

Event* ProfileTraceSource::emit_section(Cursor& c, Event* out,
                                        Event* const limit) const {
  Section& s = c.section;
  util::Rng& rng = c.rng;
  while (out != limit) {
    const Marker& m = s.markers[s.next_marker];
    if (s.next_ref == m.before_ref) {
      *out++ = m.event;
      if (++s.next_marker == s.num_markers) {
        c.in_section = false;
        break;
      }
      continue;
    }
    // Body references up to the next lock operation or the block's end.
    // Section bodies keep the program's instruction/data mix; data refs
    // mostly touch the lock's protected region (first touches migrate the
    // data from the previous holder, the rest hit in cache).
    const std::uint64_t stop = std::min<std::uint64_t>(
        m.before_ref, s.next_ref + static_cast<std::uint64_t>(limit - out));
    c.refs_emitted += stop - s.next_ref;
    for (; s.next_ref < stop; ++s.next_ref) {
      *out++ = !rng.chance_below(data_threshold_) ? make_ifetch(c)
               : rng.chance_below(cs_region_threshold_) ? make_cs_data_ref(c)
                                                         : make_data_ref(c);
    }
  }
  return out;
}

bool ProfileTraceSource::refill() {
  if (block_.size() < block_target_) block_.resize(block_target_);
  Event* const begin = block_.data();
  Event* const limit = begin + block_target_;
  Event* out = begin;
  Cursor c = cur_;
  util::Rng& rng = c.rng;
  while (out != limit) {
    if (c.in_section) {
      out = emit_section(c, out, limit);
      continue;
    }
    // Barriers fall only between sections (never inside one: deadlock).
    if (c.refs_emitted >= c.next_barrier_at) {
      *out++ = Event{AddressMap::barrier_addr(0), 2, Op::kBarrier};
      ++c.barriers_emitted;
      schedule_barrier(c);
      continue;
    }
    if (c.refs_emitted >= profile_.refs_per_proc) break;
    // Force remaining critical sections out before the trace ends, so the
    // generated lock-pair count matches the profile even for short traces.
    const std::uint64_t outer_left = outer_target_ - c.outer_emitted;
    if (outer_left > 0 &&
        (profile_.refs_per_proc - c.refs_emitted <=
             outer_left * force_refs_per_section_ ||
         rng.chance_below(c.refs_emitted < burst_window_refs_
                              ? burst_threshold_
                              : cs_threshold_))) {
      begin_section(c);
      continue;
    }
    *out++ = rng.chance_below(data_threshold_) ? make_data_ref(c)
                                               : make_ifetch(c);
    ++c.refs_emitted;
  }
  cur_ = c;
  block_target_ = std::min(2 * block_target_, kMaxBlock);
  set_block(begin, out);
  return out != begin;
}

trace::ProgramTrace make_program_trace(const BenchmarkProfile& profile) {
  trace::ProgramTrace program;
  program.name = profile.name;
  for (std::uint32_t p = 0; p < profile.num_procs; ++p) {
    program.per_proc.push_back(
        std::make_unique<ProfileTraceSource>(profile, p));
  }
  return program;
}

}  // namespace syncpat::workload

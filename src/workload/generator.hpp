// Statistical trace generator: a streaming TraceSource synthesized from a
// BenchmarkProfile.
//
// The generator is deterministic (seeded per processor), streams events in
// bounded blocks (paper-scale traces are never materialized), and is
// calibrated so the ideal analyzer recovers the profile's Table 1/2 targets.
//
// The draw order is pinned: every event consumes exactly the RNG draws, in
// exactly the order, of the original one-event-at-a-time generator, so
// streams, golden tables and fuzz repro files replay byte-identically
// whatever the block size.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/source.hpp"
#include "util/rng.hpp"
#include "workload/profile.hpp"

namespace syncpat::workload {

class ProfileTraceSource final : public trace::TraceSource {
 public:
  ProfileTraceSource(const BenchmarkProfile& profile, std::uint32_t proc);

  void reset() override;

 protected:
  bool refill() override;

 private:
  /// Block sizes: the first refill writes one event (Simulator construction
  /// reads every processor's first event, and should not synthesize more),
  /// each later refill doubles the block up to kMaxBlock.
  static constexpr std::uint32_t kMaxBlock = 256;

  /// A lock operation of a critical section, emitted just before body
  /// reference `before_ref` (before_ref == body_refs: after the last one).
  struct Marker {
    std::uint64_t before_ref = 0;
    trace::Event event;
  };

  /// A critical section in progress, resumable at any event: the outer
  /// acquire, the optional nested inner pair and the outer release are
  /// markers between the body references.
  struct Section {
    std::uint64_t next_ref = 0;       // body references emitted so far
    std::uint32_t data_base = 0;      // the lock's protected region
    std::uint32_t num_markers = 0;
    std::uint32_t next_marker = 0;
    std::array<Marker, 4> markers{};
  };

  /// Everything the stream mutates.  refill() works on a local copy and
  /// writes it back once per block.
  struct Cursor {
    util::Rng rng;
    std::uint64_t refs_emitted = 0;   // memory references only (Table 1 "All")
    std::uint64_t outer_emitted = 0;
    std::uint64_t barriers_emitted = 0;
    std::uint64_t next_barrier_at = 0;  // refs_emitted that releases the next
                                        // barrier (UINT64_MAX: none left)
    // Locality state.
    std::uint32_t pc = 0;             // instruction pointer within code region
    std::uint32_t last_shared_line = 0;
    std::uint32_t cold_pos = 0;
    std::uint32_t last_cold_addr = 0;
    bool in_section = false;
    Section section;
  };

  void begin_section(Cursor& c) const;
  trace::Event* emit_section(Cursor& c, trace::Event* out,
                             trace::Event* limit) const;
  void schedule_barrier(Cursor& c) const;
  [[nodiscard]] std::uint32_t next_gap(util::Rng& rng) const;
  [[nodiscard]] trace::Event make_data_ref(Cursor& c) const;
  [[nodiscard]] trace::Event make_cs_data_ref(Cursor& c) const;
  [[nodiscard]] trace::Event make_ifetch(Cursor& c) const;
  [[nodiscard]] std::uint32_t pick_lock(util::Rng& rng) const;
  [[nodiscard]] std::uint32_t cold_slice_bytes() const;

  BenchmarkProfile profile_;
  std::uint32_t proc_;

  Cursor cur_;
  std::vector<trace::Event> block_;  // reused; grows to kMaxBlock
  std::uint32_t block_target_ = 1;

  // Derived per-stream invariants, computed once by reset() (see .cpp).
  // Constant-probability Bernoulli draws compare the 53-bit draw against an
  // exact integer threshold (util::Rng::chance_threshold).
  std::uint64_t cs_threshold_ = 0;        // per normal ref: start a section
  std::uint64_t burst_threshold_ = 0;     // same, inside the burst window
  std::uint64_t nested_threshold_ = 0;    // per outer CS: has an inner pair
  std::uint64_t data_threshold_ = 0;      // data reference vs ifetch
  std::uint64_t jump_threshold_ = 0;      // taken branch
  std::uint64_t write_threshold_ = 0;     // store vs load
  std::uint64_t private_threshold_ = 0;   // data ref lands in the private pool
  std::uint64_t cold_threshold_ = 0;      // ... or else in the cold stream
  std::uint64_t reref_threshold_ = 0;     // shared ref re-touches last line
  std::uint64_t affinity_threshold_ = 0;  // shared ref lands in own slice
  std::uint64_t cs_region_threshold_ = 0; // CS data ref hits the protected data
  std::uint64_t short_threshold_ = 0;     // short (lock-0) section
  std::uint64_t dominant_threshold_ = 0;  // section takes the dominant lock
  std::uint64_t outer_target_ = 0;
  std::uint64_t force_refs_per_section_ = 0;  // force remaining sections out
                                              // once refs left <= this x left
  std::uint64_t burst_window_refs_ = 0;
  std::uint64_t barrier_interval_ = 0;
  util::GeometricSampler gap_sampler_;  // bit-identical table-drawn gaps
  bool draw_gaps_ = false;              // false: mean gap 1, no draw at all
  bool skewed_ = false;                 // this processor's gaps are scaled
  double skew_factor_ = 1.0;
  std::uint32_t cold_slice_ = 0;     // per-processor cold slice, clamped so
                                     // P slices fit the shared region (see
                                     // cold_slice_bytes)
};

/// Builds a full program trace (one generator per processor).
[[nodiscard]] trace::ProgramTrace make_program_trace(const BenchmarkProfile& profile);

}  // namespace syncpat::workload

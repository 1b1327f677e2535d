#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "trace/analyzer.hpp"
#include "trace/address_map.hpp"
#include "trace/mpt.hpp"
#include "workload/profiles.hpp"

namespace syncpat::workload {
namespace {

BenchmarkProfile tiny_profile() {
  BenchmarkProfile p;
  p.name = "tiny";
  p.num_procs = 4;
  p.refs_per_proc = 20'000;
  p.data_ref_fraction = 0.35;
  p.work_cycles_per_ref = 2.5;
  p.locking.pairs_per_proc = 120;
  p.locking.nested_per_proc = 40;
  p.locking.cs_work_cycles = 80;
  p.locking.num_locks = 3;
  p.locking.dominant_weight = 0.6;
  p.seed = 0x7171;
  return p;
}

TEST(Generator, DeterministicPerSeedAndProc) {
  ProfileTraceSource a(tiny_profile(), 1);
  ProfileTraceSource b(tiny_profile(), 1);
  trace::Event ea, eb;
  for (int i = 0; i < 5000; ++i) {
    const bool ha = a.next(ea);
    const bool hb = b.next(eb);
    ASSERT_EQ(ha, hb);
    if (!ha) break;
    ASSERT_EQ(ea, eb) << "diverged at event " << i;
  }
}

TEST(Generator, DifferentProcsDiffer) {
  ProfileTraceSource a(tiny_profile(), 0);
  ProfileTraceSource b(tiny_profile(), 1);
  trace::Event ea, eb;
  int diffs = 0;
  for (int i = 0; i < 100; ++i) {
    if (!a.next(ea) || !b.next(eb)) break;
    diffs += (ea == eb) ? 0 : 1;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Generator, ResetReplaysIdentically) {
  ProfileTraceSource s(tiny_profile(), 2);
  std::vector<trace::Event> first;
  trace::Event e;
  for (int i = 0; i < 200 && s.next(e); ++i) first.push_back(e);
  s.reset();
  for (const trace::Event& expected : first) {
    ASSERT_TRUE(s.next(e));
    ASSERT_EQ(e, expected);
  }
}

TEST(Generator, GapsAreAlwaysPositive) {
  ProfileTraceSource s(tiny_profile(), 0);
  trace::Event e;
  while (s.next(e)) ASSERT_GE(e.gap, 1u);
}

TEST(Generator, ReferenceCountNearTarget) {
  ProfileTraceSource s(tiny_profile(), 0);
  trace::Event e;
  std::uint64_t refs = 0;
  while (s.next(e)) {
    if (trace::is_memory_ref(e.op)) ++refs;
  }
  EXPECT_NEAR(static_cast<double>(refs), 20'000.0, 600.0);
}

TEST(Generator, LockPairsBalanced) {
  // The analyzer asserts on unbalanced acquire/release, so a clean run is
  // the property.
  trace::ProgramTrace program = make_program_trace(tiny_profile());
  const trace::IdealProgramStats stats = trace::analyze_program(program);
  for (const auto& p : stats.per_proc) {
    EXPECT_NEAR(static_cast<double>(p.lock_pairs), 120.0, 25.0);
    EXPECT_NEAR(static_cast<double>(p.nested_pairs), 40.0, 20.0);
  }
}

TEST(Generator, AddressesInValidRegions) {
  ProfileTraceSource s(tiny_profile(), 1);
  trace::Event e;
  while (s.next(e)) {
    const trace::Region region = trace::AddressMap::classify(e.addr);
    switch (e.op) {
      case trace::Op::kIFetch:
        ASSERT_EQ(region, trace::Region::kCode);
        break;
      case trace::Op::kLockAcq:
      case trace::Op::kLockRel:
        ASSERT_EQ(region, trace::Region::kLock);
        break;
      default:
        ASSERT_NE(region, trace::Region::kLock);
        break;
    }
  }
}

TEST(Generator, PrivateRefsBelongToOwnSegment) {
  const BenchmarkProfile profile = tiny_profile();
  for (std::uint32_t proc = 0; proc < profile.num_procs; ++proc) {
    ProfileTraceSource s(profile, proc);
    trace::Event e;
    while (s.next(e)) {
      if (trace::is_data_ref(e.op) &&
          trace::AddressMap::classify(e.addr) == trace::Region::kPrivate) {
        ASSERT_EQ(trace::AddressMap::private_owner(e.addr), proc);
      }
    }
  }
}

TEST(Generator, ScaledProfileShrinksCounts) {
  const BenchmarkProfile base = grav_profile();
  const BenchmarkProfile scaled = base.scaled(8);
  EXPECT_EQ(scaled.refs_per_proc, base.refs_per_proc / 8);
  EXPECT_EQ(scaled.locking.pairs_per_proc, base.locking.pairs_per_proc / 8);
  EXPECT_EQ(scaled.num_procs, base.num_procs);  // processors never scale
  EXPECT_EQ(base.scaled(1).refs_per_proc, base.refs_per_proc);
}

TEST(Generator, BurstFrontLoadsCriticalSections) {
  BenchmarkProfile p = tiny_profile();
  p.locking.burst_fraction = 0.5;
  p.locking.burst_window = 0.05;
  ProfileTraceSource s(p, 0);
  trace::Event e;
  std::uint64_t refs = 0, early_acqs = 0, total_acqs = 0;
  const std::uint64_t window = p.refs_per_proc / 20;
  while (s.next(e)) {
    if (trace::is_memory_ref(e.op)) ++refs;
    if (e.op == trace::Op::kLockAcq) {
      ++total_acqs;
      if (refs < window) ++early_acqs;
    }
  }
  // At least ~40% of acquisitions land in the first 5% of the trace.
  EXPECT_GT(static_cast<double>(early_acqs),
            0.35 * static_cast<double>(total_acqs));
}

TEST(Generator, NoLocksProfileEmitsNone) {
  BenchmarkProfile p = tiny_profile();
  p.locking.pairs_per_proc = 0;
  p.locking.nested_per_proc = 0;
  ProfileTraceSource s(p, 0);
  trace::Event e;
  while (s.next(e)) ASSERT_FALSE(trace::is_lock_op(e.op));
}

TEST(Generator, CpiSkewScalesOneProcessor) {
  BenchmarkProfile p = tiny_profile();
  p.locking.pairs_per_proc = 0;
  p.locking.nested_per_proc = 0;
  p.cpi_skew = 0.5;
  p.skew_proc = 0;
  trace::ProgramTrace program = make_program_trace(p);
  const trace::IdealProgramStats stats = trace::analyze_program(program);
  const double skewed = static_cast<double>(stats.per_proc[0].work_cycles);
  const double normal = static_cast<double>(stats.per_proc[1].work_cycles);
  EXPECT_GT(skewed, normal * 1.3);
  EXPECT_LT(skewed, normal * 1.7);
}

// ---------------------------------------------------------------------------
// Pinned streams.  The generator delivers events in blocks (1, 2, 4, ..., 256
// events, then 256 at a time) but must draw exactly what the original
// one-event-at-a-time generator drew, in the same order: old traces, golden
// tables and fuzz repro files depend on it.  The digests below were taken
// from that generator.

struct StreamDigest {
  std::uint64_t events = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over addr, gap, op

  friend bool operator==(const StreamDigest&, const StreamDigest&) = default;
};

void PrintTo(const StreamDigest& d, std::ostream* os) {
  *os << "{" << d.events << ", 0x" << std::hex << d.hash << std::dec << "}";
}

StreamDigest digest(trace::TraceSource& source) {
  StreamDigest d;
  const auto mix = [&d](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      d.hash ^= (v >> (8 * i)) & 0xff;
      d.hash *= 0x100000001b3ULL;
    }
  };
  trace::Event e;
  while (source.next(e)) {
    mix(e.addr, 4);
    mix(e.gap, 4);
    mix(static_cast<std::uint64_t>(e.op), 1);
    ++d.events;
  }
  return d;
}

StreamDigest digest_of(const BenchmarkProfile& profile, std::uint32_t proc) {
  ProfileTraceSource s(profile, proc);
  return digest(s);
}

/// True when stream positions `from` < `to` fall in different blocks.
bool crosses_block_edge(std::uint64_t from, std::uint64_t to) {
  std::uint64_t edge = 0;  // first position past from's block
  for (std::uint64_t block = 1; edge <= from;
       block = std::min<std::uint64_t>(block * 2, 256)) {
    edge += block;
  }
  return to >= edge;
}

TEST(GeneratorStream, PaperProfilesArePinned) {
  struct Pin {
    const char* name;
    std::uint32_t proc;
    StreamDigest digest;
  };
  const std::vector<Pin> pins = {
      {"Grav", 0, {18868, 0xad732cf027fdab80ULL}},
      {"Grav", 9, {18709, 0x78096e6b9d8b3cb4ULL}},
      {"Pdsa", 0, {18939, 0xb03a06a78a90604fULL}},
      {"Pdsa", 11, {18941, 0x61f34649fa02e7f4ULL}},
      {"FullConn", 0, {15139, 0x703d631b5b75ef8aULL}},
      {"FullConn", 11, {15129, 0xdcf615165ee27be0ULL}},
      {"Pverify", 0, {38000, 0x3fab5e557433e191ULL}},
      {"Pverify", 11, {38000, 0x0e4d6a721349fc02ULL}},
      {"Qsort", 0, {18396, 0x34784f640428c5d5ULL}},
      {"Qsort", 11, {18396, 0x5fc0c2467733dd94ULL}},
      {"Topopt", 0, {64609, 0x5984418678f78225ULL}},
      {"Topopt", 8, {64609, 0x46eeb4e3b10437b7ULL}},
  };
  std::size_t checked = 0;
  for (const BenchmarkProfile& base : paper_profiles()) {
    const BenchmarkProfile profile = base.scaled(64);
    for (const Pin& pin : pins) {
      if (profile.name != pin.name) continue;
      EXPECT_EQ(digest_of(profile, pin.proc), pin.digest)
          << pin.name << " proc " << pin.proc;
      ++checked;
    }
  }
  EXPECT_EQ(checked, pins.size());
}

BenchmarkProfile long_section_profile() {
  BenchmarkProfile p = tiny_profile();
  p.refs_per_proc = 40'000;
  p.locking.pairs_per_proc = 30;
  p.locking.nested_per_proc = 10;
  p.locking.cs_work_cycles = 2'000;  // ~800 body references per section
  return p;
}

TEST(GeneratorStream, SectionSpanningManyBlocksIsPinned) {
  const BenchmarkProfile p = long_section_profile();
  ProfileTraceSource s(p, 0);
  // The property under test: some section is several full blocks long.
  std::uint64_t index = 0, outer_start = 0, longest = 0;
  std::uint32_t outer_lock = 0;
  bool in_outer = false;
  trace::Event e;
  while (s.next(e)) {
    if (e.op == trace::Op::kLockAcq && !in_outer) {
      in_outer = true;
      outer_lock = e.addr;
      outer_start = index;
    } else if (in_outer && e.op == trace::Op::kLockRel &&
               e.addr == outer_lock) {
      in_outer = false;
      longest = std::max(longest, index - outer_start);
    }
    ++index;
  }
  EXPECT_GT(longest, 4u * 256u);

  EXPECT_EQ(digest_of(p, 0), (StreamDigest{40188, 0x6a4f8cd4e0a82cc4ULL}));
  EXPECT_EQ(digest_of(p, 3), (StreamDigest{40318, 0x0b9b531c3db70e00ULL}));
}

TEST(GeneratorStream, NestedPairStraddlingABlockEdgeIsPinned) {
  const BenchmarkProfile p = tiny_profile();
  const std::uint32_t inner =
      trace::AddressMap::lock_addr(p.locking.inner_lock);
  ProfileTraceSource s(p, 1);
  std::uint64_t index = 0, inner_acq = 0, straddling = 0;
  trace::Event e;
  while (s.next(e)) {
    if (e.addr == inner && e.op == trace::Op::kLockAcq) inner_acq = index;
    if (e.addr == inner && e.op == trace::Op::kLockRel &&
        crosses_block_edge(inner_acq, index)) {
      ++straddling;
    }
    ++index;
  }
  EXPECT_GT(straddling, 0u);

  EXPECT_EQ(digest_of(p, 1), (StreamDigest{20230, 0xceb0fc0a749f7864ULL}));
}

TEST(GeneratorStream, TrailingBarriersArePinned) {
  // Evenly spaced barriers, and a trace so short that most of its barriers
  // trail the last reference, more of them than one block holds.
  BenchmarkProfile spaced = tiny_profile();
  spaced.locking.barriers_per_proc = 6;
  BenchmarkProfile dense = tiny_profile();
  dense.refs_per_proc = 50;
  dense.locking.pairs_per_proc = 3;
  dense.locking.nested_per_proc = 1;
  dense.locking.barriers_per_proc = 400;

  for (const BenchmarkProfile* p : {&spaced, &dense}) {
    ProfileTraceSource s(*p, 2);
    const std::vector<trace::Event> events = trace::collect(s);
    std::uint64_t barriers = 0, trailing = 0;
    for (const trace::Event& e : events) {
      const bool barrier = e.op == trace::Op::kBarrier;
      barriers += barrier ? 1 : 0;
      trailing = barrier ? trailing + 1 : 0;
    }
    EXPECT_EQ(barriers, p->locking.barriers_per_proc);
    if (p == &dense) {
      EXPECT_GT(trailing, 256u);
    }
  }

  EXPECT_EQ(digest_of(spaced, 2), (StreamDigest{20258, 0x1e577ecd888bb8f7ULL}));
  EXPECT_EQ(digest_of(dense, 2), (StreamDigest{456, 0x017c98d85552efccULL}));
}

TEST(GeneratorStream, ResetMidBlockReplaysIdentically) {
  const BenchmarkProfile p = long_section_profile();
  ProfileTraceSource fresh(p, 0);
  const std::vector<trace::Event> full = trace::collect(fresh);
  // Cut points inside the first blocks, inside a full 256-event block, and
  // inside a long critical section.
  for (const std::size_t cut : {1u, 2u, 5u, 300u, 1'000u, 5'000u}) {
    ProfileTraceSource s(p, 0);
    trace::Event e;
    for (std::size_t i = 0; i < cut; ++i) ASSERT_TRUE(s.next(e));
    s.reset();
    EXPECT_EQ(trace::collect(s), full) << "reset after " << cut << " events";
  }
}

TEST(GeneratorStream, CollectReturnsVectorAndExpanderInput) {
  ProfileTraceSource generated(tiny_profile(), 0);
  const std::vector<trace::Event> events = trace::collect(generated);
  ASSERT_GT(events.size(), 1'000u);

  // Drained, and reset both at the end and mid-stream (inside a block).
  const auto replays = [&events](trace::TraceSource& s) {
    EXPECT_EQ(trace::collect(s), events);
    s.reset();
    EXPECT_EQ(trace::collect(s), events);
    s.reset();
    trace::Event e;
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(s.next(e));
    s.reset();
    EXPECT_EQ(trace::collect(s), events);
  };
  trace::VectorTraceSource vec(events);
  replays(vec);

  trace::VectorTraceSource source(events);
  const trace::MptStream stream = trace::compact(source);
  trace::MptExpander expander(stream);
  replays(expander);

  trace::VectorTraceSource empty;
  EXPECT_TRUE(trace::collect(empty).empty());
}

}  // namespace
}  // namespace syncpat::workload

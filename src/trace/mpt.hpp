// MPTrace-style compact trace encoding (paper §2.1).
//
// MPTrace "only saves the entry address of each basic block and memory
// references within that block that cannot be statically reconstructed", and
// a post-processing phase expands the compact form into the full reference
// trace.  We mirror that two-phase structure:
//
//  * A *block skeleton* is the statically-reconstructible part of a basic
//    block: the sequence of (op, gap) pairs plus, for instruction fetches,
//    the offset of each fetch from the block entry address (code addresses
//    are static).  Data addresses are dynamic and live in a side stream.
//  * A compacted stream is: a dictionary of skeletons, a sequence of
//    (block-id, entry-address) executions, and the dynamic address stream.
//
// The compactor cuts blocks at instruction-fetch boundaries (every IFetch
// starts a new block, as a taken branch would), deduplicating skeletons via
// hashing.  The expander regenerates the original event stream exactly;
// tests assert round-trip identity.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/source.hpp"

namespace syncpat::trace {

/// One operation inside a block skeleton.
struct MptSlot {
  Op op = Op::kIFetch;
  std::uint32_t gap = 0;
  // For kIFetch: offset of the fetch address from the block entry address.
  // For all other ops the address is dynamic and not part of the skeleton.
  std::uint32_t code_offset = 0;

  friend bool operator==(const MptSlot&, const MptSlot&) = default;
};

struct MptBlock {
  std::vector<MptSlot> slots;

  friend bool operator==(const MptBlock&, const MptBlock&) = default;
};

/// One executed block instance.
struct MptExecution {
  std::uint32_t block_id = 0;
  std::uint32_t entry_addr = 0;  // address of the first ifetch, 0 if none
};

/// Compact single-processor trace.
struct MptStream {
  std::vector<MptBlock> dictionary;
  std::vector<MptExecution> executions;
  std::vector<std::uint32_t> dynamic_addrs;  // loads/stores/lock ops, in order

  /// Total events after expansion.
  [[nodiscard]] std::uint64_t expanded_size() const;
  /// Compact footprint in bytes (for compression-ratio reporting).
  [[nodiscard]] std::uint64_t compact_bytes() const;
};

/// Compacts a full event stream.  The source is drained.
[[nodiscard]] MptStream compact(TraceSource& source);

/// Streaming expander: replays an MptStream as a TraceSource, expanding a
/// small block of events per refill.
class MptExpander final : public TraceSource {
 public:
  explicit MptExpander(const MptStream& stream) : stream_(&stream) {}

  void reset() override;

 protected:
  bool refill() override;

 private:
  static constexpr std::size_t kBlockEvents = 64;

  const MptStream* stream_;
  std::array<Event, kBlockEvents> block_{};
  std::size_t exec_pos_ = 0;
  std::size_t slot_pos_ = 0;
  std::size_t dyn_pos_ = 0;
};

}  // namespace syncpat::trace

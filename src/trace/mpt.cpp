#include "trace/mpt.hpp"

#include <string>

#include "util/assert.hpp"

namespace syncpat::trace {
namespace {

// Hashable key for skeleton deduplication.
struct BlockKey {
  std::string bytes;

  static BlockKey from(const MptBlock& block) {
    BlockKey key;
    key.bytes.reserve(block.slots.size() * 9);
    for (const MptSlot& s : block.slots) {
      key.bytes.push_back(static_cast<char>(s.op));
      key.bytes.append(reinterpret_cast<const char*>(&s.gap), sizeof(s.gap));
      key.bytes.append(reinterpret_cast<const char*>(&s.code_offset),
                       sizeof(s.code_offset));
    }
    return key;
  }

  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return std::hash<std::string>{}(k.bytes);
  }
};

}  // namespace

std::uint64_t MptStream::expanded_size() const {
  std::uint64_t total = 0;
  for (const MptExecution& ex : executions) {
    total += dictionary[ex.block_id].slots.size();
  }
  return total;
}

std::uint64_t MptStream::compact_bytes() const {
  std::uint64_t bytes = 0;
  for (const MptBlock& b : dictionary) bytes += b.slots.size() * 9;
  bytes += executions.size() * 8;
  bytes += dynamic_addrs.size() * 4;
  return bytes;
}

MptStream compact(TraceSource& source) {
  MptStream stream;
  std::unordered_map<BlockKey, std::uint32_t, BlockKeyHash> dict_index;

  MptBlock current;
  std::uint32_t entry_addr = 0;
  bool have_block = false;

  auto flush = [&]() {
    if (!have_block) return;
    BlockKey key = BlockKey::from(current);
    auto [it, inserted] =
        dict_index.try_emplace(std::move(key),
                               static_cast<std::uint32_t>(stream.dictionary.size()));
    if (inserted) stream.dictionary.push_back(current);
    stream.executions.push_back(MptExecution{it->second, entry_addr});
    current.slots.clear();
    entry_addr = 0;
    have_block = false;
  };

  Event e;
  while (source.next(e)) {
    if (e.op == Op::kIFetch && have_block &&
        !(current.slots.size() == 0)) {
      // A new ifetch starts a new block unless the current block is empty.
      flush();
    }
    if (!have_block) {
      have_block = true;
      entry_addr = (e.op == Op::kIFetch) ? e.addr : 0;
    }
    MptSlot slot;
    slot.op = e.op;
    slot.gap = e.gap;
    if (e.op == Op::kIFetch) {
      slot.code_offset = e.addr - entry_addr;
    } else {
      stream.dynamic_addrs.push_back(e.addr);
    }
    current.slots.push_back(slot);
  }
  flush();
  return stream;
}

bool MptExpander::refill() {
  std::size_t n = 0;
  while (n < kBlockEvents && exec_pos_ < stream_->executions.size()) {
    const MptExecution& ex = stream_->executions[exec_pos_];
    const MptBlock& block = stream_->dictionary[ex.block_id];
    if (slot_pos_ >= block.slots.size()) {
      ++exec_pos_;
      slot_pos_ = 0;
      continue;
    }
    const MptSlot& slot = block.slots[slot_pos_++];
    Event& out = block_[n++];
    out.op = slot.op;
    out.gap = slot.gap;
    if (slot.op == Op::kIFetch) {
      out.addr = ex.entry_addr + slot.code_offset;
    } else {
      SYNCPAT_ASSERT(dyn_pos_ < stream_->dynamic_addrs.size());
      out.addr = stream_->dynamic_addrs[dyn_pos_++];
    }
  }
  set_block(block_.data(), block_.data() + n);
  return n > 0;
}

void MptExpander::reset() {
  set_block(nullptr, nullptr);
  exec_pos_ = 0;
  slot_pos_ = 0;
  dyn_pos_ = 0;
}

}  // namespace syncpat::trace

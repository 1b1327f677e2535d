// Shared helpers for the syncpat test suite.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_config.hpp"
#include "core/simulator.hpp"
#include "trace/address_map.hpp"
#include "trace/source.hpp"

namespace syncpat::testutil {

using trace::Event;
using trace::Op;

/// Shorthand event constructors.
inline Event load(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kLoad};
}
inline Event store(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kStore};
}
inline Event ifetch(std::uint32_t addr, std::uint32_t gap = 1) {
  return Event{addr, gap, Op::kIFetch};
}
inline Event lock_acq(std::uint32_t lock_id, std::uint32_t gap = 1) {
  return Event{trace::AddressMap::lock_addr(lock_id), gap, Op::kLockAcq};
}
inline Event lock_rel(std::uint32_t lock_id, std::uint32_t gap = 1) {
  return Event{trace::AddressMap::lock_addr(lock_id), gap, Op::kLockRel};
}

/// Builds a ProgramTrace from per-processor event lists.
inline trace::ProgramTrace make_program(
    std::vector<std::vector<Event>> per_proc, std::string name = "test") {
  trace::ProgramTrace program;
  program.name = std::move(name);
  for (auto& events : per_proc) {
    program.per_proc.push_back(
        std::make_unique<trace::VectorTraceSource>(std::move(events)));
  }
  return program;
}

/// Runs a program on the given config and returns the results.
inline core::SimulationResult simulate(core::MachineConfig config,
                                       trace::ProgramTrace& program) {
  config.num_procs = static_cast<std::uint32_t>(program.num_procs());
  core::Simulator sim(config, program);
  return sim.run();
}

/// Default machine with a chosen lock scheme / consistency model.
inline core::MachineConfig machine(
    sync::SchemeKind scheme = sync::SchemeKind::kQueuing,
    bus::ConsistencyModel model = bus::ConsistencyModel::kSequential) {
  core::MachineConfig config;
  config.lock_scheme = scheme;
  config.consistency = model;
  return config;
}

/// Addresses in distinct regions for coherence tests: shared lines 64 bytes
/// apart (never in the same 16-byte line).
inline std::uint32_t shared_line(std::uint32_t i) {
  return trace::AddressMap::shared_addr(i * 64);
}

/// Minimal JSON syntax checker — enough to prove an exporter's output is
/// well-formed (Perfetto rejects anything a standard parser would).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace syncpat::testutil

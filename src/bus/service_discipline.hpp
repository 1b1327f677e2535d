// Pluggable bus service disciplines (Nikolov & Lerato: comparison of
// service disciplines for a shared-bus multiprocessor).
//
// The Bus object owns occupancy and statistics; *who* wins arbitration when
// several ports want the bus is a policy.  This seam extracts the historical
// hardwired round-robin scan into a ServiceDiscipline the simulator consults
// each arbitration round:
//
//   * round-robin (default): the scan restarts one past the last grant —
//     byte-identical to the pre-seam behavior, which the golden tables and
//     the engine-differential suite pin;
//   * fixed-priority: memory responses first, then processors in id order —
//     the static-priority daisy chain; low ids starve high ids on short
//     horizons (the fairness tests demonstrate the skew), but a bounded
//     aging escape promotes the oldest waiter past the chain so no request
//     is deferred forever;
//   * fcfs: the globally oldest queued request wins (first-come first-served
//     / queued discipline), using each head transaction's bus-queue arrival
//     stamp.
//
// A discipline produces a full priority-ordered port permutation per round;
// the simulator walks it and grants the first serviceable request, so an
// unserviceable high-priority port (line in flight, memory input full) never
// deadlocks the bus.  Grant bookkeeping (rotation, wait statistics) goes
// through record_grant().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/running_stat.hpp"

namespace syncpat::bus {

enum class DisciplineKind : std::uint8_t { kRoundRobin, kFixedPriority, kFcfs };

inline constexpr std::size_t kNumDisciplines = 3;

[[nodiscard]] const char* discipline_name(DisciplineKind kind);
/// Strict: accepts exactly "round-robin", "fixed-priority" or "fcfs";
/// anything else throws std::invalid_argument naming the offending text.
[[nodiscard]] DisciplineKind discipline_from_name(const std::string& name);

/// One port's view of an arbitration round (filled only for disciplines that
/// need request stamps, see ServiceDiscipline::needs_stamps()).
struct ArbRequest {
  bool present = false;     // a grant-eligible request waits at this port
  std::uint64_t stamp = 0;  // cycle it reached the bus queue (issued_cycle)
};

/// Per-run grant bookkeeping, reported per discipline in SimulationResult.
struct DisciplineStats {
  std::uint64_t grants = 0;         // processor-side request grants
  std::uint64_t memory_grants = 0;  // memory response grants
  std::uint64_t max_grant_wait = 0; // worst queued-to-granted wait (cycles)
  util::RunningStat grant_wait;     // queued-to-granted wait per grant
};

class ServiceDiscipline {
 public:
  explicit ServiceDiscipline(std::uint32_t ports) : ports_(ports) {}
  virtual ~ServiceDiscipline();

  ServiceDiscipline(const ServiceDiscipline&) = delete;
  ServiceDiscipline& operator=(const ServiceDiscipline&) = delete;

  /// Writes a permutation of [0, ports) into `out`, highest grant priority
  /// first.  `req` has one entry per port (`req[ports-1]` is the memory
  /// response port) and may be null when needs_stamps() is false; `now` is
  /// the current bus cycle, for disciplines that age requests.
  virtual void scan_order(const ArbRequest* req, std::uint64_t now,
                          std::uint32_t* out) = 0;

  /// True when scan_order() reads the per-port request stamps; the caller
  /// then fills an ArbRequest per port before calling it.
  [[nodiscard]] virtual bool needs_stamps() const { return false; }

  /// Records that `port` won arbitration for a request that waited
  /// `wait_cycles` since reaching the bus queue.  Rotates stateful
  /// disciplines and feeds the wait statistics.
  void record_grant(std::uint32_t port, std::uint64_t wait_cycles,
                    bool memory_response) {
    memory_response ? ++stats_.memory_grants : ++stats_.grants;
    stats_.grant_wait.add(static_cast<double>(wait_cycles));
    if (wait_cycles > stats_.max_grant_wait) stats_.max_grant_wait = wait_cycles;
    on_granted(port);
  }

  [[nodiscard]] virtual DisciplineKind kind() const = 0;
  [[nodiscard]] const char* name() const { return discipline_name(kind()); }
  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] const DisciplineStats& stats() const { return stats_; }

 protected:
  virtual void on_granted(std::uint32_t /*port*/) {}

  std::uint32_t ports_;

 private:
  DisciplineStats stats_;
};

/// The historical policy: scan starts one past the last granted port.
class RoundRobinDiscipline final : public ServiceDiscipline {
 public:
  using ServiceDiscipline::ServiceDiscipline;
  void scan_order(const ArbRequest* req, std::uint64_t now,
                  std::uint32_t* out) override;
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kRoundRobin;
  }
  /// The port the scan considers `offset` (< ports) places after the last
  /// grant (exposed for the rotation unit tests).
  [[nodiscard]] std::uint32_t peek(std::uint32_t offset) const {
    const std::uint32_t port = next_ + offset;
    return port >= ports_ ? port - ports_ : port;
  }

 protected:
  void on_granted(std::uint32_t port) override {
    next_ = port + 1 == ports_ ? 0 : port + 1;
  }

 private:
  std::uint32_t next_ = 0;
};

/// Static priority: memory responses, then processors in ascending id order.
///
/// Pure static priority livelocks: an unthrottled test&set retry stream from
/// low-id spinners outranks a higher-id holder's release write forever (the
/// fuzz-discovered seed-24245/case-3 hang).  Real daisy-chain arbiters bound
/// the inversion with a fairness timeout (e.g. Futurebus+ priority-with-
/// fairness mode); this one promotes the single oldest queued processor
/// request ahead of the chain once it has waited kStarvationEscapeCycles.
/// Short-horizon behaviour stays id-ordered — the fairness skew the
/// discipline exists to model survives — but every request is granted within
/// a bounded window, so the bus is livelock-free under any scheme.
class FixedPriorityDiscipline final : public ServiceDiscipline {
 public:
  /// Cycles a queued request may be passed over before it jumps the chain.
  /// Large against a lock hand-off (tens of cycles), small against the
  /// simulator's 500k-cycle progress watchdog and test cycle budgets.
  static constexpr std::uint64_t kStarvationEscapeCycles = 1024;

  using ServiceDiscipline::ServiceDiscipline;
  void scan_order(const ArbRequest* req, std::uint64_t now,
                  std::uint32_t* out) override;
  [[nodiscard]] bool needs_stamps() const override { return true; }
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFixedPriority;
  }
};

/// First-come first-served: the oldest queued request (by bus-queue arrival
/// stamp, port id breaking ties) wins; requestless ports trail in id order.
class FcfsDiscipline final : public ServiceDiscipline {
 public:
  using ServiceDiscipline::ServiceDiscipline;
  void scan_order(const ArbRequest* req, std::uint64_t now,
                  std::uint32_t* out) override;
  [[nodiscard]] bool needs_stamps() const override { return true; }
  [[nodiscard]] DisciplineKind kind() const override {
    return DisciplineKind::kFcfs;
  }
};

[[nodiscard]] std::unique_ptr<ServiceDiscipline> make_discipline(
    DisciplineKind kind, std::uint32_t ports);

}  // namespace syncpat::bus

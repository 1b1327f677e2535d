#include "bus/service_discipline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace syncpat::bus {

ServiceDiscipline::~ServiceDiscipline() = default;

const char* discipline_name(DisciplineKind kind) {
  switch (kind) {
    case DisciplineKind::kRoundRobin: return "round-robin";
    case DisciplineKind::kFixedPriority: return "fixed-priority";
    case DisciplineKind::kFcfs: return "fcfs";
  }
  return "?";
}

DisciplineKind discipline_from_name(const std::string& name) {
  if (name == "round-robin") return DisciplineKind::kRoundRobin;
  if (name == "fixed-priority") return DisciplineKind::kFixedPriority;
  if (name == "fcfs") return DisciplineKind::kFcfs;
  throw std::invalid_argument(
      "bus discipline expects \"round-robin\", \"fixed-priority\" or "
      "\"fcfs\", got \"" +
      name + "\"");
}

void RoundRobinDiscipline::scan_order(const ArbRequest* /*req*/,
                                      std::uint64_t /*now*/,
                                      std::uint32_t* out) {
  // Wrap-around count from next_: the rotation without a division per port.
  std::uint32_t port = next_;
  for (std::uint32_t i = 0; i < ports_; ++i) {
    out[i] = port;
    if (++port == ports_) port = 0;
  }
}

void FixedPriorityDiscipline::scan_order(const ArbRequest* req,
                                         std::uint64_t now,
                                         std::uint32_t* out) {
  SYNCPAT_ASSERT(req != nullptr);
  // Memory responses drain first (they hold a line slot and block retries).
  out[0] = ports_ - 1;
  // Aging escape: find the oldest queued processor request (stamp, port id
  // breaking ties — the id-order scan below never considers a later port
  // with an equal stamp first, so <, not <=, keeps the scan deterministic).
  std::uint32_t oldest = ports_;
  for (std::uint32_t p = 0; p + 1 < ports_; ++p) {
    if (req[p].present &&
        (oldest == ports_ || req[p].stamp < req[oldest].stamp)) {
      oldest = p;
    }
  }
  std::uint32_t idx = 1;
  if (oldest != ports_ &&
      now - req[oldest].stamp >= kStarvationEscapeCycles) {
    // Bounded priority inversion: one starving request jumps the chain.
    out[idx++] = oldest;
  } else {
    oldest = ports_;  // nobody promoted; emit the pure static chain
  }
  for (std::uint32_t p = 0; p + 1 < ports_; ++p) {
    if (p != oldest) out[idx++] = p;
  }
}

void FcfsDiscipline::scan_order(const ArbRequest* req, std::uint64_t /*now*/,
                                std::uint32_t* out) {
  SYNCPAT_ASSERT(req != nullptr);
  for (std::uint32_t i = 0; i < ports_; ++i) {
    out[i] = i;
  }
  // Total order (requests by arrival stamp, then port id; requestless ports
  // trail in id order), so the sort is deterministic without stability.
  std::sort(out, out + ports_, [req](std::uint32_t a, std::uint32_t b) {
    if (req[a].present != req[b].present) return req[a].present;
    if (req[a].present && req[a].stamp != req[b].stamp) {
      return req[a].stamp < req[b].stamp;
    }
    return a < b;
  });
}

std::unique_ptr<ServiceDiscipline> make_discipline(DisciplineKind kind,
                                                   std::uint32_t ports) {
  SYNCPAT_ASSERT(ports > 0);
  switch (kind) {
    case DisciplineKind::kRoundRobin:
      return std::make_unique<RoundRobinDiscipline>(ports);
    case DisciplineKind::kFixedPriority:
      return std::make_unique<FixedPriorityDiscipline>(ports);
    case DisciplineKind::kFcfs:
      return std::make_unique<FcfsDiscipline>(ports);
  }
  throw std::invalid_argument("unknown bus discipline kind");
}

}  // namespace syncpat::bus

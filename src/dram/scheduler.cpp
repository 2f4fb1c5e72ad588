#include "dram/scheduler.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::dram {

std::unique_ptr<Scheduler> Scheduler::make(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kFcfsPerBank:
      return std::make_unique<FcfsPerBankScheduler>();
    case SchedulerKind::kFrFcfs:
      return std::make_unique<FrFcfsScheduler>();
    case SchedulerKind::kReadFirst:
      return std::make_unique<ReadFirstScheduler>();
    case SchedulerKind::kTdm:
      return std::make_unique<TdmScheduler>(64, 4);
  }
  return std::make_unique<FrFcfsScheduler>();
}

std::unique_ptr<Scheduler> Scheduler::make(const DramConfig& cfg) {
  if (cfg.scheduler == SchedulerKind::kTdm) {
    return std::make_unique<TdmScheduler>(cfg.tdm_slot_cycles,
                                          cfg.tdm_clients);
  }
  return make(cfg.scheduler);
}

namespace {

/// Queue index of the oldest entry set in `word(0) .. word(words - 1)`.
template <typename Word>
std::size_t first_set(std::size_t words, Word word) {
  for (std::size_t w = 0; w < words; ++w) {
    if (const std::uint64_t x = word(w)) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
  }
  return Scheduler::kNone;
}

std::size_t first_issuable(const RoundMasks& m) {
  return first_set(m.words(), [&](std::size_t w) { return m.issuable[w]; });
}

/// Issuable row hits first, then any issuable entry, both oldest first,
/// among the entries `among(w)` marks.
template <typename Among>
std::size_t first_ready(const RoundMasks& m, Among among) {
  const std::size_t hit = first_set(m.words(), [&](std::size_t w) {
    return m.issuable[w] & m.row_hit[w] & among(w);
  });
  if (hit != Scheduler::kNone) return hit;
  return first_set(m.words(),
                   [&](std::size_t w) { return m.issuable[w] & among(w); });
}

}  // namespace

std::size_t FcfsScheduler::pick(const RoundMasks& m,
                                std::uint64_t /*oldest_wait*/) const {
  // Only the head of the queue may issue; everything else waits behind it.
  return m.size != 0 && (m.issuable[0] & 1u) != 0 ? 0 : kNone;
}

std::size_t FcfsPerBankScheduler::pick(const RoundMasks& m,
                                       std::uint64_t /*oldest_wait*/) const {
  // The oldest entry per bank may issue; pick the oldest issuable one.
  return first_set(m.words(), [&](std::size_t w) {
    return m.issuable[w] & m.bank_head[w];
  });
}

std::size_t FrFcfsScheduler::pick(const RoundMasks& m,
                                  std::uint64_t oldest_wait) const {
  // Starvation guard: serve strictly oldest-first until the queue drains
  // below the cap.
  if (oldest_wait > starvation_cap_) return first_issuable(m);
  return first_ready(m, [](std::size_t) { return ~std::uint64_t{0}; });
}

ReadFirstScheduler::ReadFirstScheduler(unsigned high_watermark,
                                       unsigned low_watermark,
                                       std::uint64_t starvation_cap)
    : high_watermark_(high_watermark),
      low_watermark_(low_watermark),
      starvation_cap_(starvation_cap) {
  require(low_watermark_ < high_watermark_,
          "read-first scheduler: watermarks must satisfy low < high");
}

std::size_t ReadFirstScheduler::pick(const RoundMasks& m,
                                     std::uint64_t oldest_wait) const {
  note_writes(m.writes);
  if (oldest_wait > starvation_cap_) return first_issuable(m);

  // Four priority classes: (favoured, row hit) > (favoured) >
  // (other, row hit) > (other). Oldest-first within a class. Bits past
  // `size` are clear in `issuable`, so inverting `write` is safe.
  const std::uint64_t flip = draining_ ? 0 : ~std::uint64_t{0};
  const std::size_t favoured =
      first_ready(m, [&](std::size_t w) { return m.write[w] ^ flip; });
  if (favoured != kNone) return favoured;
  return first_ready(m, [&](std::size_t w) { return ~(m.write[w] ^ flip); });
}

void ReadFirstScheduler::save(SnapshotWriter& w) const {
  w.boolean(draining_);
}

void ReadFirstScheduler::load(SnapshotReader& r) { draining_ = r.boolean(); }

TdmScheduler::TdmScheduler(unsigned slot_cycles, unsigned num_slots)
    : slot_cycles_(slot_cycles), num_slots_(num_slots) {
  require(slot_cycles_ >= 1, "tdm scheduler: slot_cycles must be >= 1");
  require(num_slots_ >= 1, "tdm scheduler: num_slots must be >= 1");
}

std::size_t TdmScheduler::pick(const RoundMasks& m,
                               std::uint64_t /*oldest_wait*/) const {
  // Hard slot isolation: only the slot owner's requests may issue, no
  // matter how long anyone else has waited — the rotation itself is the
  // starvation guard. Within the slot, FR-FCFS order.
  return first_ready(m, [&](std::size_t w) { return m.owner[w]; });
}

}  // namespace edsim::dram

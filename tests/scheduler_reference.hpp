// Test-only reference for the scheduler policies: the per-candidate loops
// the library used before it picked from round bitmasks. Each queued
// request is one `Candidate`, listed in queue (age) order, and every
// reference pick returns a position in that list. `masks_of` turns the
// same list into the `RoundMasks` the library policies read, so a test can
// state a round once and check the mask pick against the loop.
// `queue_masks_of` builds the controller's maintained queue position masks
// from scratch, for the invariant check against the incremental ones.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "dram/scheduler.hpp"

namespace edsim::dram::reference {

/// One queued request as the reference loops see it.
struct Candidate {
  unsigned bank = 0;
  unsigned client_id = 0;  ///< issuing client (TDM slot ownership)
  bool row_hit = false;    ///< next command is a column command to the open row
  bool issuable = false;   ///< all timing constraints met this cycle
  bool is_write = false;   ///< underlying request is a write
};

inline constexpr std::size_t kNone = Scheduler::kNone;

inline std::size_t fcfs(const std::vector<Candidate>& cs) {
  return !cs.empty() && cs.front().issuable ? 0 : kNone;
}

inline std::size_t fcfs_per_bank(const std::vector<Candidate>& cs) {
  std::uint64_t seen_banks = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (cs[i].bank & 63u);
    const bool head_of_bank = (seen_banks & bit) == 0;
    seen_banks |= bit;
    if (head_of_bank && cs[i].issuable) return i;
  }
  return kNone;
}

inline std::size_t first_issuable(const std::vector<Candidate>& cs) {
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable) return i;
  return kNone;
}

inline std::size_t fr_fcfs(const std::vector<Candidate>& cs,
                           std::uint64_t starvation_cap,
                           std::uint64_t oldest_wait) {
  if (oldest_wait > starvation_cap) return first_issuable(cs);
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable && cs[i].row_hit) return i;
  return first_issuable(cs);
}

/// ReadFirst carries its write-drain hysteresis across rounds, so the
/// reference does too.
struct ReadFirst {
  unsigned high_watermark;
  unsigned low_watermark;
  std::uint64_t starvation_cap;
  bool draining = false;

  std::size_t pick(const std::vector<Candidate>& cs,
                   std::uint64_t oldest_wait) {
    unsigned writes = 0;
    for (const Candidate& c : cs)
      if (c.is_write) ++writes;
    if (writes >= high_watermark) draining = true;
    if (writes <= low_watermark) draining = false;
    if (oldest_wait > starvation_cap) return first_issuable(cs);
    // Four priority classes: (favoured, row hit) > (favoured) >
    // (other, row hit) > (other). Oldest-first within a class.
    for (const int pass : {0, 1, 2, 3}) {
      const bool want_write = (pass < 2) == draining;
      const bool want_hit = pass % 2 == 0;
      for (std::size_t i = 0; i < cs.size(); ++i) {
        const Candidate& c = cs[i];
        if (!c.issuable || c.is_write != want_write) continue;
        if (want_hit && !c.row_hit) continue;
        return i;
      }
    }
    return kNone;
  }
};

inline std::size_t tdm(const std::vector<Candidate>& cs, std::uint64_t cycle,
                       unsigned slot_cycles, unsigned num_slots) {
  const auto own = static_cast<unsigned>((cycle / slot_cycles) % num_slots);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Candidate& c = cs[i];
    if (c.issuable && c.row_hit && c.client_id % num_slots == own) return i;
  }
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Candidate& c = cs[i];
    if (c.issuable && c.client_id % num_slots == own) return i;
  }
  return kNone;
}

/// The round masks the controller would build for `cs`; `owner` marks the
/// clients with `client_id % num_slots == owner_class`.
inline RoundMasks masks_of(const std::vector<Candidate>& cs,
                           unsigned owner_class = 0, unsigned num_slots = 1) {
  RoundMasks m;
  m.resize(cs.size());
  std::uint64_t seen_banks = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Candidate& c = cs[i];
    const std::size_t w = i / 64;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    const std::uint64_t bank_bit = std::uint64_t{1} << (c.bank & 63u);
    if (c.issuable) m.issuable[w] |= bit;
    if (c.row_hit) m.row_hit[w] |= bit;
    if (c.is_write) {
      m.write[w] |= bit;
      ++m.writes;
    }
    if ((seen_banks & bank_bit) == 0) m.bank_head[w] |= bit;
    seen_banks |= bank_bit;
    if (c.client_id % num_slots == owner_class) m.owner[w] |= bit;
  }
  return m;
}

/// Library pick for the round `cs` at `cycle`, as a position in `cs`.
template <typename Policy>
std::size_t pick(const Policy& s, const std::vector<Candidate>& cs,
                 std::uint64_t cycle, std::uint64_t oldest_wait) {
  if constexpr (std::is_same_v<Policy, TdmScheduler>) {
    return s.pick(masks_of(cs, s.owner(cycle), s.num_slots()), oldest_wait);
  } else {
    return s.pick(masks_of(cs), oldest_wait);
  }
}

/// One queued request as the controller's position masks describe it.
struct QueuedRequest {
  unsigned bank = 0;
  unsigned row = 0;
  bool is_write = false;
  unsigned client_id = 0;
};

/// The controller's derived queue state: bitmasks over queue positions,
/// bit i of word i / 64 describing queue entry i, `words` words each.
struct QueueMasks {
  std::vector<std::vector<std::uint64_t>> bank;  ///< per bank: its entries
  std::vector<std::uint64_t> write;              ///< write entries
  /// Entries whose bank is open on their row, plus any stray bit past the
  /// queue (hit bits of precharged banks are allowed to be stale).
  std::vector<std::uint64_t> row_hit;
  std::vector<std::vector<std::uint64_t>> tdm_class;  ///< per slot class
  std::uint64_t queued_banks = 0;  ///< bit b: bank b has queued work

  bool operator==(const QueueMasks&) const = default;
};

/// QueueMasks of `queue` (age order), built from scratch in one pass.
/// `open_row[b]` is bank b's open row, empty when it is precharged;
/// `tdm_classes` is the TDM slot count, 0 for the other policies.
inline QueueMasks queue_masks_of(
    const std::vector<QueuedRequest>& queue,
    const std::vector<std::optional<unsigned>>& open_row,
    unsigned tdm_classes, std::size_t words) {
  QueueMasks m;
  const std::vector<std::uint64_t> zero(words, 0);
  m.bank.assign(open_row.size(), zero);
  m.write = zero;
  m.row_hit = zero;
  m.tdm_class.assign(tdm_classes, zero);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueuedRequest& q = queue[i];
    const std::size_t w = i / 64;
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    m.bank[q.bank][w] |= bit;
    m.queued_banks |= std::uint64_t{1} << q.bank;
    if (q.is_write) m.write[w] |= bit;
    if (open_row[q.bank] == q.row) m.row_hit[w] |= bit;
    if (tdm_classes != 0) m.tdm_class[q.client_id % tdm_classes][w] |= bit;
  }
  return m;
}

}  // namespace edsim::dram::reference

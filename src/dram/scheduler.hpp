#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dram/config.hpp"

namespace edsim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace edsim

namespace edsim::dram {

/// One scheduler round as bitmasks over queue positions: bit i of word
/// i / 64 describes queue entry i. The queue is age-ordered, so the lowest
/// set bit of a mask is its oldest entry and every policy picks by
/// count-trailing-zeros. Bits at and past `size` are clear in every mask.
struct RoundMasks {
  std::size_t size = 0;                  ///< queued entries this round
  std::vector<std::uint64_t> issuable;   ///< next command legal this cycle
  std::vector<std::uint64_t> row_hit;    ///< next command is a column
                                         ///< access to the open row
  std::vector<std::uint64_t> write;      ///< request is a write
  std::vector<std::uint64_t> bank_head;  ///< oldest entry of its bank
                                         ///< (built for kFcfsPerBank)
  std::vector<std::uint64_t> owner;      ///< client in the TDM slot owner's
                                         ///< class (built for kTdm)
  unsigned writes = 0;  ///< write entries queued (ReadFirst watermarks)

  std::size_t words() const { return (size + 63) / 64; }
  /// Set `size` to `entries`, growing every mask to cover them. Words
  /// added here start clear; the builder overwrites the others.
  void resize(std::size_t entries) {
    size = entries;
    if (issuable.size() >= words()) return;
    for (auto* mask : {&issuable, &row_hit, &write, &bank_head, &owner}) {
      mask->resize(words(), 0);
    }
  }
};

/// Scheduling policy: picks which queued request to serve. Pure function
/// of the round's masks (ReadFirst adds its write-drain hysteresis), so
/// policies are trivially testable.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Returns a queue index, or kNone. `oldest_wait` is the age in cycles
  /// of the oldest queued request, used for starvation control.
  virtual std::size_t pick(const RoundMasks& m,
                           std::uint64_t oldest_wait) const = 0;

  /// Persist / restore policy-internal state. Most policies are pure
  /// functions of the round (nothing to save); ReadFirst carries its
  /// write-drain hysteresis flag across cycles and overrides these.
  virtual void save(SnapshotWriter& /*w*/) const {}
  virtual void load(SnapshotReader& /*r*/) {}

  static std::unique_ptr<Scheduler> make(SchedulerKind kind);
  /// Config-aware factory: kTdm reads its slot geometry from `cfg`.
  static std::unique_ptr<Scheduler> make(const DramConfig& cfg);
};

/// Strict in-order service: only the oldest request may advance. Exhibits
/// the head-of-line blocking that makes sustainable bandwidth collapse
/// under interleaved clients (paper §4).
class FcfsScheduler final : public Scheduler {
 public:
  std::size_t pick(const RoundMasks& m,
                   std::uint64_t oldest_wait) const override;
};

/// In-order within each bank, banks progress independently.
class FcfsPerBankScheduler final : public Scheduler {
 public:
  std::size_t pick(const RoundMasks& m,
                   std::uint64_t oldest_wait) const override;
};

/// First-ready FCFS: issuable row-hit column commands first (oldest such),
/// then the oldest issuable command of any kind. A starvation guard
/// reverts to strict age order when the oldest request has waited too long.
class FrFcfsScheduler final : public Scheduler {
 public:
  explicit FrFcfsScheduler(std::uint64_t starvation_cap = 256)
      : starvation_cap_(starvation_cap) {}

  std::size_t pick(const RoundMasks& m,
                   std::uint64_t oldest_wait) const override;

  std::uint64_t starvation_cap() const { return starvation_cap_; }

 private:
  std::uint64_t starvation_cap_;
};

/// Read-priority FR-FCFS with write draining. Reads (which block the
/// processor or a rate-critical client) are served first; writes are
/// buffered and drained in bursts once the queue holds `high_watermark`
/// of them, until it falls to `low_watermark` — the policy real
/// controllers use to amortize bus-turnaround penalties.
class ReadFirstScheduler final : public Scheduler {
 public:
  ReadFirstScheduler(unsigned high_watermark = 20, unsigned low_watermark = 6,
                     std::uint64_t starvation_cap = 512);

  std::size_t pick(const RoundMasks& m,
                   std::uint64_t oldest_wait) const override;

  bool draining() const { return draining_; }
  std::uint64_t starvation_cap() const { return starvation_cap_; }

  /// Apply exactly the hysteresis update pick() performs for a queue
  /// holding `writes` write entries, without selecting anything.
  /// The update is idempotent for a fixed queue composition, so the
  /// controller's burst-issue fast path calls it once per composition
  /// segment instead of once per skipped tick and lands on the same
  /// draining_ state per-cycle stepping would.
  void note_writes(unsigned writes) const {
    if (writes >= high_watermark_) draining_ = true;
    if (writes <= low_watermark_) draining_ = false;
  }

  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  unsigned high_watermark_;
  unsigned low_watermark_;
  std::uint64_t starvation_cap_;
  mutable bool draining_ = false;  // hysteresis state across cycles
};

/// Real-time TDM arbitration: the command bus rotates through `num_slots`
/// fixed time slots of `slot_cycles` each; during slot s only clients with
/// `client_id % num_slots == s` may issue. Within the owner's slot the
/// policy is FR-FCFS (row hits first, then oldest). The caller marks the
/// owner's entries in `RoundMasks::owner` using owner(cycle). Starvation-free by
/// construction — every client's worst-case service is a pure function of
/// the timing parameters (see core/wcet.hpp) — at the cost of leaving
/// slots idle when their owner has no work. Pair with kBankRowCol and
/// per-client disjoint regions for full bank privatization.
class TdmScheduler final : public Scheduler {
 public:
  TdmScheduler(unsigned slot_cycles, unsigned num_slots);

  std::size_t pick(const RoundMasks& m,
                   std::uint64_t oldest_wait) const override;

  /// Which slot (and thus which client-id class) owns `cycle`.
  unsigned owner(std::uint64_t cycle) const {
    return static_cast<unsigned>((cycle / slot_cycles_) %
                                 num_slots_);
  }
  unsigned slot_cycles() const { return slot_cycles_; }
  unsigned num_slots() const { return num_slots_; }

 private:
  unsigned slot_cycles_;
  unsigned num_slots_;
};

}  // namespace edsim::dram

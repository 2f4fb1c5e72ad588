#include "dram/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "dram/reliability_hooks.hpp"
#include "dram/request.hpp"
#include "scheduler_reference.hpp"

namespace edsim::dram {

/// Test-only friend of Controller: reads its queue and its maintained
/// queue position masks.
struct ControllerTestAccess {
  static std::vector<reference::QueuedRequest> queue(const Controller& c) {
    std::vector<reference::QueuedRequest> out;
    for (const auto& e : c.queue_) {
      out.push_back({e.coord.bank, e.coord.row,
                     e.req.type == AccessType::kWrite, e.req.client_id});
    }
    return out;
  }

  static std::vector<std::optional<unsigned>> open_rows(const Controller& c) {
    std::vector<std::optional<unsigned>> out;
    for (const Bank& b : c.banks_) {
      out.push_back(b.has_open_row() ? std::optional(b.open_row())
                                     : std::nullopt);
    }
    return out;
  }

  static std::size_t words(const Controller& c) { return c.mask_words_; }

  static reference::QueueMasks masks(const Controller& c) {
    const std::size_t words = c.mask_words_;
    reference::QueueMasks m;
    std::vector<std::uint64_t> closed(words, 0);
    for (unsigned b = 0; b < c.cfg_.banks; ++b) {
      m.bank.emplace_back(c.bank_pos(b), c.bank_pos(b) + words);
      if (c.banks_[b].has_open_row()) continue;
      for (std::size_t w = 0; w < words; ++w) closed[w] |= c.bank_pos(b)[w];
    }
    m.write.assign(c.write_pos_, c.write_pos_ + words);
    m.row_hit.assign(c.hit_pos_, c.hit_pos_ + words);
    for (std::size_t w = 0; w < words; ++w) m.row_hit[w] &= ~closed[w];
    for (unsigned cls = 0; cls < c.tdm_classes_; ++cls) {
      m.tdm_class.emplace_back(c.class_pos(cls), c.class_pos(cls) + words);
    }
    m.queued_banks = c.queued_banks_;
    return m;
  }
};

namespace {

using reference::Candidate;
using reference::pick;

// The Command argument names what the entry needs next; policies see
// only the row-hit and issuable bits it implies.
Candidate cand(unsigned bank, Command /*next*/, bool hit, bool issuable) {
  Candidate c;
  c.bank = bank;
  c.row_hit = hit;
  c.issuable = issuable;
  return c;
}

TEST(Fcfs, OnlyHeadMayIssue) {
  FcfsScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kActivate, false, false),
      cand(1, Command::kRead, true, true),
  };
  // Head not issuable: nothing issues even though a younger one could.
  EXPECT_EQ(pick(s, cs, 0, 0), Scheduler::kNone);
  cs[0].issuable = true;
  EXPECT_EQ(pick(s, cs, 0, 0), 0u);
}

TEST(Fcfs, EmptyQueue) {
  FcfsScheduler s;
  EXPECT_EQ(pick(s, {}, 0, 0), Scheduler::kNone);
}

TEST(FcfsPerBank, HeadOfEachBankMayIssue) {
  FcfsPerBankScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kActivate, false, false),  // bank 0 head, stuck
      cand(0, Command::kRead, true, true),        // bank 0, behind head
      cand(1, Command::kRead, true, true),        // bank 1 head, ready
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 2u);  // bank 1's head proceeds independently
}

TEST(FcfsPerBank, InOrderWithinBank) {
  FcfsPerBankScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kActivate, false, true),
      cand(0, Command::kRead, true, true),
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 0u);  // never the younger one in the same bank
}

TEST(FrFcfs, PrefersRowHitsOverOlderMisses) {
  FrFcfsScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kActivate, false, true),  // oldest, row miss
      cand(1, Command::kRead, true, true),       // younger, row hit
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 1u);
}

TEST(FrFcfs, OldestAmongEqualPriority) {
  FrFcfsScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kRead, true, true),
      cand(1, Command::kRead, true, true),
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 0u);
}

TEST(FrFcfs, FallsBackToOldestIssuable) {
  FrFcfsScheduler s;
  std::vector<Candidate> cs = {
      cand(0, Command::kPrecharge, false, false),
      cand(1, Command::kActivate, false, true),
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 1u);
}

TEST(FrFcfs, StarvationGuardRevertsToAgeOrder) {
  FrFcfsScheduler s(/*starvation_cap=*/100);
  std::vector<Candidate> cs = {
      cand(0, Command::kPrecharge, false, true),  // old conflict victim
      cand(1, Command::kRead, true, true),        // young row hit
  };
  EXPECT_EQ(pick(s, cs, 0, 50), 1u);   // normal: hit first
  EXPECT_EQ(pick(s, cs, 0, 101), 0u);  // starved: oldest first
}

TEST(SchedulerFactory, MakesRequestedKind) {
  EXPECT_NE(dynamic_cast<FcfsScheduler*>(
                Scheduler::make(SchedulerKind::kFcfs).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<FcfsPerBankScheduler*>(
                Scheduler::make(SchedulerKind::kFcfsPerBank).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<FrFcfsScheduler*>(
                Scheduler::make(SchedulerKind::kFrFcfs).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<TdmScheduler*>(
                Scheduler::make(SchedulerKind::kTdm).get()),
            nullptr);
}

TEST(SchedulerFactory, TdmReadsSlotGeometryFromConfig) {
  DramConfig cfg;
  cfg.scheduler = SchedulerKind::kTdm;
  cfg.tdm_slot_cycles = 17;
  cfg.tdm_clients = 3;
  auto s = Scheduler::make(cfg);
  const auto* tdm = dynamic_cast<TdmScheduler*>(s.get());
  ASSERT_NE(tdm, nullptr);
  EXPECT_EQ(tdm->slot_cycles(), 17u);
  EXPECT_EQ(tdm->num_slots(), 3u);
}

Candidate tdm_cand(unsigned client, bool hit, bool issuable) {
  Candidate c = cand(0, hit ? Command::kRead : Command::kActivate, hit,
                     issuable);
  c.client_id = client;
  return c;
}

TEST(Tdm, OnlySlotOwnerMayIssue) {
  TdmScheduler s(/*slot_cycles=*/10, /*num_slots=*/2);
  std::vector<Candidate> cs = {
      tdm_cand(0, true, true),   // client 0, ready row hit
      tdm_cand(1, true, true),   // client 1, ready row hit
  };
  EXPECT_EQ(pick(s, cs, 5, 0), 0u);    // cycles 0..9: slot 0
  EXPECT_EQ(pick(s, cs, 15, 0), 1u);   // cycles 10..19: slot 1
  EXPECT_EQ(pick(s, cs, 25, 0), 0u);   // rotation wraps
}

TEST(Tdm, IdleSlotStaysIdleEvenUnderStarvation) {
  TdmScheduler s(/*slot_cycles=*/10, /*num_slots=*/2);
  std::vector<Candidate> cs = {
      tdm_cand(1, true, true),   // only client 1 has work
  };
  // Slot 0 stays idle no matter how long client 1 has waited: the
  // rotation, not an age cap, is the starvation guard.
  EXPECT_EQ(pick(s, cs, 3, 1'000'000), Scheduler::kNone);
  EXPECT_EQ(pick(s, cs, 13, 0), 0u);
}

TEST(Tdm, FrFcfsOrderWithinSlot) {
  TdmScheduler s(/*slot_cycles=*/100, /*num_slots=*/2);
  std::vector<Candidate> cs = {
      tdm_cand(0, false, true),  // owner, older, row miss
      tdm_cand(0, true, true),   // owner, younger, row hit
      tdm_cand(1, true, true),   // not the owner: invisible this slot
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 1u);  // hit first within the owner's work
  cs[1].issuable = false;
  EXPECT_EQ(pick(s, cs, 0, 0), 0u);  // then oldest issuable
}

TEST(Tdm, ClientIdsFoldOntoSlots) {
  TdmScheduler s(/*slot_cycles=*/10, /*num_slots=*/2);
  std::vector<Candidate> cs = {
      tdm_cand(2, true, true),  // 2 % 2 == 0: shares slot 0
  };
  EXPECT_EQ(pick(s, cs, 0, 0), 0u);
  EXPECT_EQ(pick(s, cs, 10, 0), Scheduler::kNone);
}


// --- mask picks vs. the per-candidate reference loops ---------------------
// Random rounds over every depth 1..130 plus 512, so the 63/64/65 and 128
// word boundaries of the masks are crossed. Each round draws its issuable
// density, so the first pickable entry also lands in later words.

std::vector<Candidate> random_round(Rng& rng, std::size_t depth) {
  const unsigned banks = 1u << rng.next_below(7);  // 1 .. 64
  const unsigned rows = 1 + static_cast<unsigned>(rng.next_below(8));
  // Each bank is precharged (no row matches) or has one of `rows` open.
  std::vector<unsigned> open_row(banks);
  for (unsigned& r : open_row) {
    r = static_cast<unsigned>(rng.next_below(rows + 1));
  }
  const double p_issuable = 1.0 / static_cast<double>(1 + rng.next_below(64));
  const double p_write = rng.next_double();
  std::vector<Candidate> cs(depth);
  for (Candidate& c : cs) {
    c.bank = static_cast<unsigned>(rng.next_below(banks));
    const auto row = static_cast<unsigned>(rng.next_below(rows));
    c.row_hit = open_row[c.bank] == row;
    c.client_id = static_cast<unsigned>(rng.next_below(9));
    c.issuable = rng.next_bool(p_issuable);
    c.is_write = rng.next_bool(p_write);
  }
  return cs;
}

std::vector<std::size_t> test_depths() {
  std::vector<std::size_t> depths;
  for (std::size_t d = 1; d <= 130; ++d) depths.push_back(d);
  depths.push_back(512);
  return depths;
}

TEST(SchedulerMasks, StatelessPoliciesMatchReference) {
  Rng rng(0x5c4ed01e);
  const FcfsScheduler fcfs;
  const FcfsPerBankScheduler per_bank;
  const FrFcfsScheduler fr(/*starvation_cap=*/100);
  for (const std::size_t depth : test_depths()) {
    for (int round = 0; round < 20; ++round) {
      const std::vector<Candidate> cs = random_round(rng, depth);
      const std::uint64_t wait = rng.next_below(200);
      const std::uint64_t cycle = rng.next_below(10'000);
      SCOPED_TRACE(::testing::Message()
                   << "depth " << depth << " round " << round);
      EXPECT_EQ(pick(fcfs, cs, cycle, wait), reference::fcfs(cs));
      EXPECT_EQ(pick(per_bank, cs, cycle, wait),
                reference::fcfs_per_bank(cs));
      EXPECT_EQ(pick(fr, cs, cycle, wait), reference::fr_fcfs(cs, 100, wait));
      const auto slot_cycles = static_cast<unsigned>(1 + rng.next_below(40));
      const auto slots = static_cast<unsigned>(1 + rng.next_below(5));
      const TdmScheduler tdm(slot_cycles, slots);
      EXPECT_EQ(pick(tdm, cs, cycle, wait),
                reference::tdm(cs, cycle, slot_cycles, slots));
    }
  }
}

TEST(SchedulerMasks, SingleEntryAtEveryWordBoundary) {
  // Exactly one pickable entry, placed on each side of each word edge.
  const FrFcfsScheduler fr;
  for (const std::size_t depth : {64u, 65u, 128u, 129u, 512u}) {
    for (const std::size_t at : {0u, 62u, 63u, 64u, 65u, 127u, 128u, 511u}) {
      if (at >= depth) continue;
      std::vector<Candidate> cs(depth);
      cs[at].issuable = true;
      EXPECT_EQ(pick(fr, cs, 0, 0), at) << "depth " << depth;
      cs[at].row_hit = true;
      EXPECT_EQ(pick(fr, cs, 0, 0), at) << "depth " << depth;
    }
  }
}

TEST(SchedulerMasks, ReadFirstSequencesMatchReference) {
  // Whole pick sequences, so the write-drain hysteresis state is compared
  // round by round as the queue's write count crosses the watermarks.
  Rng rng(0x4eadf125u);
  for (const std::size_t depth : test_depths()) {
    const auto high = static_cast<unsigned>(
        2 + rng.next_below(std::min<std::size_t>(depth, 40)));
    const auto low = static_cast<unsigned>(rng.next_below(high));
    ReadFirstScheduler s(high, low, /*starvation_cap=*/300);
    reference::ReadFirst ref{high, low, 300};
    for (int round = 0; round < 12; ++round) {
      const std::vector<Candidate> cs = random_round(rng, depth);
      const std::uint64_t wait = rng.next_below(400);
      SCOPED_TRACE(::testing::Message()
                   << "depth " << depth << " round " << round);
      EXPECT_EQ(pick(s, cs, 0, wait), ref.pick(cs, wait));
      EXPECT_EQ(s.draining(), ref.draining);
    }
  }
}

// ---------------------------------------------------------------------------
// Controller queue position masks: the masks the controller maintains
// incrementally (push, erase with carry across words, ACT re-marking its
// bank's hit bits) must equal a from-scratch build after every enqueue,
// every advance and every snapshot restore.

/// Reliability hooks that only retire one bank, so enqueues steer around it.
class RetiredBankHooks final : public ReliabilityHooks {
 public:
  explicit RetiredBankHooks(unsigned bank) : bank_(bank) {}
  void on_cycle(std::uint64_t) override {}
  AccessOutcome on_access(const Coordinates&, AccessType,
                          std::uint64_t) override {
    return AccessOutcome::kClean;
  }
  void on_refresh(std::uint64_t) override {}
  bool bank_retired(unsigned bank) const override { return bank == bank_; }
  const ReliabilityCounters& counters() const override { return counters_; }

 private:
  unsigned bank_;
  ReliabilityCounters counters_;
};

bool masks_match(const Controller& c, const std::string& after) {
  const reference::QueueMasks want = reference::queue_masks_of(
      ControllerTestAccess::queue(c), ControllerTestAccess::open_rows(c),
      c.config().scheduler == SchedulerKind::kTdm ? c.config().tdm_clients : 0,
      ControllerTestAccess::words(c));
  const bool same = ControllerTestAccess::masks(c) == want;
  EXPECT_TRUE(same) << "queue masks diverge after " << after << " at cycle "
                    << c.cycle() << " with " << c.queue_size() << " queued";
  return same;
}

TEST(SchedulerMasks, ControllerMasksMatchFromScratch) {
  constexpr std::uint64_t kWindow = 1'500;
  unsigned trial = 0;
  for (const unsigned depth : {1u, 31u, 32u, 63u, 64u, 65u, 128u, 512u}) {
    for (const auto kind : {SchedulerKind::kFcfs, SchedulerKind::kFcfsPerBank,
                            SchedulerKind::kFrFcfs, SchedulerKind::kReadFirst,
                            SchedulerKind::kTdm}) {
      for (const auto page : {PagePolicy::kOpen, PagePolicy::kClosed,
                              PagePolicy::kTimeout}) {
        // Rotate the extras: plain, watchdog escalations, or a retired
        // bank that enqueues steer around.
        const unsigned variant = trial++ % 3;
        DramConfig cfg = presets::edram_module(16, 64, 8, 2048);
        cfg.queue_depth = depth;
        cfg.scheduler = kind;
        cfg.page_policy = page;
        cfg.page_timeout_cycles = 32;
        cfg.tdm_slot_cycles = 24;
        cfg.tdm_clients = 3;
        if (variant == 1) {
          cfg.watchdog_enabled = true;
          cfg.watchdog_cycles = 200;
          cfg.watchdog_retries = 1'000;
        }
        SCOPED_TRACE("trial " + std::to_string(trial) + " depth " +
                     std::to_string(depth) + " variant " +
                     std::to_string(variant));
        RetiredBankHooks hooks(3);
        const auto make = [&] {
          auto c = std::make_unique<Controller>(cfg);
          if (variant == 2) c->attach_reliability(&hooks);
          return c;
        };
        auto ctl = make();
        Rng rng(1'000 + trial);
        const std::uint64_t beats =
            cfg.capacity().byte_count() / cfg.bytes_per_access();
        std::uint64_t beat = 0;
        std::vector<Request> sink;
        std::uint64_t next_restore = 200;
        while (ctl->cycle() < kWindow) {
          if (rng.next_bool(0.3)) {
            const std::uint64_t burst = 1 + rng.next_below(depth);
            for (std::uint64_t i = 0; i < burst && !ctl->queue_full(); ++i) {
              beat = rng.next_bool(0.6) ? (beat + 1) % beats
                                        : rng.next_below(beats);
              Request r;
              r.addr = beat * cfg.bytes_per_access();
              r.type = rng.next_bool(0.3) ? AccessType::kWrite
                                          : AccessType::kRead;
              r.client_id = static_cast<unsigned>(rng.next_below(6));
              ctl->enqueue(r);
              if (!masks_match(*ctl, "enqueue")) return;
            }
          }
          // Per-cycle ticks, fast-forward and the dense drive each run
          // their own stretch of ticks and skips.
          const std::uint64_t stop = ctl->cycle() + 1 + rng.next_below(64);
          switch (rng.next_below(3)) {
            case 0:
              while (ctl->cycle() < stop) {
                ctl->tick();
                if (!masks_match(*ctl, "tick")) return;
              }
              break;
            case 1:
              ctl->tick_until(stop);
              if (!masks_match(*ctl, "tick_until")) return;
              break;
            default:
              ctl->dense_advance(stop);
              if (!masks_match(*ctl, "dense_advance")) return;
              break;
          }
          ctl->drain_completed_into(sink);
          if (ctl->cycle() >= next_restore) {
            next_restore += 200 + rng.next_below(200);
            SnapshotWriter w;
            ctl->save(w);
            const std::vector<std::uint8_t> blob = w.seal();
            ctl = make();
            SnapshotReader r(blob);
            ctl->load(r);
            r.expect_end();
            if (!masks_match(*ctl, "snapshot restore")) return;
          }
        }
        EXPECT_GT(ctl->stats().reads + ctl->stats().writes, 0u);
        if (variant == 2) EXPECT_GT(ctl->stats().redirected_requests, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace edsim::dram

#include "dram/bank.hpp"

#include <algorithm>

#include "common/snapshot.hpp"

namespace edsim::dram {

const char* to_string(Command c) {
  switch (c) {
    case Command::kActivate: return "ACT";
    case Command::kPrecharge: return "PRE";
    case Command::kRead: return "RD";
    case Command::kWrite: return "WR";
    case Command::kRefresh: return "REF";
    case Command::kMaintStart: return "MAINT";
    case Command::kMaintEnd: return "MAINT-END";
  }
  return "?";
}

const char* to_string(AccessType t) {
  return t == AccessType::kRead ? "R" : "W";
}

void Bank::issue(Command cmd, unsigned row, std::uint64_t cycle) {
  switch (cmd) {
    case Command::kActivate:
      state_ = State::kActive;
      open_row_ = row;
      ++acts_;
      next_col_ = cycle + t_->tRCD;
      next_pre_ = cycle + t_->tRAS;
      next_act_ = cycle + t_->tRC;
      break;
    case Command::kPrecharge:
      state_ = State::kIdle;
      ++pres_;
      next_act_ = std::max(next_act_, cycle + t_->tRP);
      break;
    case Command::kRead:
      // Column commands push back the earliest precharge so the burst can
      // drain: PRE no earlier than RD + BL (read-to-precharge).
      next_col_ = cycle + t_->tCCD;
      next_pre_ = std::max<std::uint64_t>(next_pre_,
                                          cycle + t_->burst_length);
      break;
    case Command::kWrite:
      next_col_ = cycle + t_->tCCD;
      // Write recovery: PRE must wait until data written plus tWR.
      next_pre_ = std::max<std::uint64_t>(
          next_pre_, cycle + t_->tWL + t_->burst_length + t_->tWR);
      break;
    case Command::kRefresh:
      // Channel-level refresh holds every bank for tRFC.
      state_ = State::kIdle;
      next_act_ = cycle + t_->tRFC;
      break;
    case Command::kMaintStart:
    case Command::kMaintEnd:
      break;  // lock bookkeeping is block_until / controller state
  }
}

void Bank::save(SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(state_));
  w.u64(open_row_);
  w.u64(next_act_);
  w.u64(next_pre_);
  w.u64(next_col_);
  w.u64(acts_);
  w.u64(pres_);
}

void Bank::load(SnapshotReader& r) {
  const std::uint64_t st = r.u64();
  if (st > static_cast<std::uint64_t>(State::kActive)) {
    r.fail("bank state out of range");
  }
  state_ = static_cast<State>(st);
  open_row_ = static_cast<unsigned>(r.u64());
  next_act_ = r.u64();
  next_pre_ = r.u64();
  next_col_ = r.u64();
  acts_ = r.u64();
  pres_ = r.u64();
}

}  // namespace edsim::dram

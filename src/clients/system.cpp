#include "clients/system.hpp"

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::clients {

MemorySystem::MemorySystem(const dram::DramConfig& cfg, ArbiterKind arbiter,
                           std::vector<double> weights)
    : controller_(cfg), arbiter_(Arbiter::make(arbiter, std::move(weights))) {}

Client& MemorySystem::add_client(std::unique_ptr<Client> client) {
  require(client != nullptr, "memory system: null client");
  clients_.push_back(std::move(client));
  stats_.emplace_back();
  fifos_.emplace_back(controller_.config().bytes_per_access());
  outstanding_.push_back(0);
  return *clients_.back();
}

void MemorySystem::deliver_completions(std::uint64_t cycle) {
  controller_.drain_completed_into(completed_scratch_);
  for (const dram::Request& r : completed_scratch_) {
    const std::size_t i = r.client_id;
    stats_[i].record_completion(r);
    fifos_[i].on_complete();
    if (outstanding_[i] > 0) --outstanding_[i];
    clients_[i]->notify_complete(r, cycle);
  }
}

void MemorySystem::step() {
  const std::uint64_t cycle = controller_.cycle();

  // 1. Deliver completions.
  deliver_completions(cycle);

  // 2. Arbitration: one enqueue attempt per cycle (the controller accepts
  //    at most one column command per cycle anyway).
  std::vector<bool>& ready = ready_;
  ready.assign(clients_.size(), false);
  bool any_ready = false;
  if (!clients_paused_) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      ready[i] = clients_[i]->has_request(cycle);
      any_ready = any_ready || ready[i];
    }
  }
  // A channel whose banks have all been retired by the reliability layer
  // accepts nothing; treat it as permanent back-pressure, not a crash.
  if (any_ready && !controller_.queue_full() &&
      !controller_.all_banks_retired()) {
    const std::size_t win = arbiter_->pick(ready);
    if (win != Arbiter::kNone) {
      dram::Request r = clients_[win]->make_request(cycle);
      r.client_id = static_cast<unsigned>(win);
      const bool ok = controller_.enqueue(r);
      require(ok, "memory system: enqueue failed after queue_full check");
      arbiter_->granted(win, controller_.config().bytes_per_access());
      stats_[win].issued++;
      stats_[win].bytes += controller_.config().bytes_per_access();
      fifos_[win].on_issue();
      ++outstanding_[win];
    }
  } else if (any_ready) {
    // Back-pressure: every ready client stalls this cycle.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (ready[i]) {
        stats_[i].stall_cycles++;
        clients_[i]->notify_rejected(cycle);
      }
    }
  }

  // 3. Per-cycle sampling.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    fifos_[i].sample();
    stats_[i].outstanding.add(static_cast<double>(outstanding_[i]));
  }

  // 4. Advance the channel.
  controller_.tick();
}

void MemorySystem::skip_quiet_stretch(std::uint64_t end) {
  const std::uint64_t now = controller_.cycle();
  if (now >= end) return;
  // A pending completion means the very next step does real work
  // (delivery + notify_complete at its exact cycle).
  if (controller_.has_completions()) return;
  // Clients first: a ready one ends the probe before the controller's
  // event bound (a pass over its queue) is ever computed.
  std::uint64_t stop = end;
  if (!clients_paused_) {
    for (const auto& c : clients_) {
      const std::uint64_t wake = c->next_request_cycle(now);
      if (wake <= now) return;  // ready now (or conservative client): no skip
      stop = std::min(stop, wake);
    }
  }
  stop = std::min(stop, controller_.next_event_cycle());
  if (stop <= now) return;
  // Every cycle in [now, stop) is quiet: no client ready, no completion,
  // no controller event — a per-cycle step would only sample. Credit the
  // whole stretch in bulk, bit-identically.
  const std::uint64_t k = stop - now;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    fifos_[i].sample_repeated(k);
    stats_[i].outstanding.add_repeated(static_cast<double>(outstanding_[i]),
                                       k);
  }
  controller_.advance_idle(k);
}

void MemorySystem::dense_stretch(std::uint64_t end) {
  // Saturated steady state: each iteration executes one boundary cycle's
  // full step inline (delivery, then at most one arbitration grant that
  // tops the queue back off) and bulk-credits the stall/sample-only
  // cycles up to the next controller event. The loop only returns to
  // per-cycle step() when demand lapses or the shape stops being provably
  // dense — so a saturated stream never pays step()'s per-cycle overhead.
  while (true) {
    const std::uint64_t now = controller_.cycle();
    if (now >= end || clients_paused_) return;
    // Cycle `now` must end with a full queue: either it already is, or
    // this cycle's single arbitration grant tops it off. Anything deeper
    // (fill/drain transients, retired banks) is per-cycle territory —
    // tested first because it is O(1) and the client scan below is not.
    // Bailing before the delivery is safe: step() delivers any pending
    // completions at this same cycle.
    const bool full = controller_.queue_full();
    if (!full &&
        (controller_.queue_size() + 1 < controller_.config().queue_depth ||
         controller_.all_banks_retired())) {
      return;
    }
    // Completions retired by the last covered tick deliver here — the
    // same cycle the next per-cycle step would deliver them. Safe even
    // when the loop bails below: step() then drains an empty list.
    if (controller_.has_completions()) deliver_completions(now);
    // Readiness must provably persist across the stretch; a client that
    // claims nothing falls back to per-cycle stepping. Scan after the
    // delivery so notify_complete-driven state is visible, as in step().
    ready_.assign(clients_.size(), false);
    std::uint64_t wake = dram::kNeverCycle;
    bool any_ready = false;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->has_request(now)) {
        if (clients_[i]->pending_run_length(now) == 0) return;
        ready_[i] = true;
        any_ready = true;
      } else {
        const std::uint64_t w = clients_[i]->next_request_cycle(now);
        if (w <= now) return;  // conservative client: no claim either way
        wake = std::min(wake, w);
      }
    }
    if (!any_ready) return;  // quiet shape — skip_quiet_stretch's job
    std::size_t win = Arbiter::kNone;
    if (!full) {
      // Execute cycle `now`'s arbitration exactly as step() would. With
      // any_ready set every arbiter returns a winner (and a kNone pick
      // mutates nothing, so handing the cycle back to step() is safe).
      win = arbiter_->pick(ready_);
      if (win == Arbiter::kNone) return;
      dram::Request r = clients_[win]->make_request(now);
      r.client_id = static_cast<unsigned>(win);
      const bool ok = controller_.enqueue(r);
      require(ok, "memory system: enqueue failed after queue_full check");
      arbiter_->granted(win, controller_.config().bytes_per_access());
      stats_[win].issued++;
      stats_[win].bytes += controller_.config().bytes_per_access();
      fifos_[win].on_issue();
      ++outstanding_[win];
      // The grant consumed the winner's claim: re-establish it (the
      // stall credit below counts on it) or learn its wake-up instead.
      if (clients_[win]->has_request(now + 1)) {
        if (clients_[win]->pending_run_length(now + 1) == 0) {
          wake = std::min(wake, now + 1);
          ready_[win] = false;
        }
      } else {
        const std::uint64_t w = clients_[win]->next_request_cycle(now + 1);
        wake = std::min(wake, std::max(w, now + 1));
        ready_[win] = false;
      }
    }
    // Advance the channel to just past its next front-end-visible event
    // (first freed queue slot or retirement), bounded by the demand
    // horizon: until then, the queue stays full — every covered step
    // would only stall-count and sample — and no delivery is pending.
    // Crediting the stretch afterwards is safe: the client-side
    // accumulators are disjoint from the controller's own state.
    controller_.dense_advance(std::min(end, wake));
    const std::uint64_t k = controller_.cycle() - now;
    const bool granted_now = win != Arbiter::kNone;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (ready_[i]) {
        // Ready clients stall on every covered back-pressure cycle; a
        // grant cycle is not one (step() skips the stall branch on grant).
        stats_[i].stall_cycles += k - (granted_now ? 1 : 0);
      }
      fifos_[i].sample_repeated(k);
      stats_[i].outstanding.add_repeated(static_cast<double>(outstanding_[i]),
                                         k);
    }
  }
}

bool MemorySystem::all_done() const {
  bool done = controller_.idle();
  for (const auto& c : clients_) done = done && c->finished();
  return done;
}

bool MemorySystem::run_until(std::uint64_t end, bool until_done) {
  while (controller_.cycle() < end) {
    if (until_done && all_done()) {
      // One more step to deliver completions retired on the final tick.
      step();
      return true;
    }
    step();
    // The done flag cannot change inside a quiet stretch (no issues, no
    // retirements), and a dense stretch needs a full queue, which a done
    // system cannot have. But skipping past the step() that first
    // observes it would shift the final cycle — so never skip once done.
    if (until_done && all_done()) continue;
    if (fast_forward_) skip_quiet_stretch(end);
    if (burst_issue_) dense_stretch(end);
  }
  return false;
}

void MemorySystem::run(std::uint64_t cycles) {
  run_until(controller_.cycle() + cycles, /*until_done=*/false);
}

void MemorySystem::run_to_completion(std::uint64_t max_cycles) {
  require(run_until(controller_.cycle() + max_cycles, /*until_done=*/true),
          "memory system: run_to_completion hit the cycle bound");
}

void MemorySystem::save(SnapshotWriter& w) const {
  w.u64(clients_.size());
  controller_.save(w);
  arbiter_->save(w);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->save_state(w);
    stats_[i].save(w);
    fifos_[i].save(w);
    w.u32(outstanding_[i]);
  }
}

void MemorySystem::load(SnapshotReader& r) {
  if (r.u64() != clients_.size()) {
    r.fail("memory-system snapshot client count mismatch");
  }
  controller_.load(r);
  arbiter_->load(r);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->load_state(r);
    stats_[i].load(r);
    fifos_[i].load(r);
    outstanding_[i] = r.u32();
  }
}

std::vector<std::uint8_t> MemorySystem::save_snapshot() const {
  SnapshotWriter w;
  save(w);
  return w.seal();
}

void MemorySystem::restore_snapshot(const std::uint8_t* data,
                                    std::size_t size) {
  SnapshotReader r(data, size);
  load(r);
  r.expect_end();
}

void MemorySystem::reset_measurement() {
  controller_.reset_stats();
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    stats_[i] = ClientStats{};
    fifos_[i].reset_measurement();
  }
}

Bandwidth MemorySystem::aggregate_bandwidth() const {
  return controller_.stats().sustained_bandwidth(controller_.config().clock);
}

double MemorySystem::bandwidth_efficiency() const {
  const double peak = controller_.config().peak_bandwidth().bits_per_s;
  return peak > 0.0 ? aggregate_bandwidth().bits_per_s / peak : 0.0;
}

}  // namespace edsim::clients

#include "clients/multi_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace edsim::clients {

MultiChannelSystem::MultiChannelSystem(const dram::DramConfig& per_channel,
                                       unsigned channels,
                                       dram::ChannelInterleave interleave,
                                       ArbiterKind arbiter,
                                       std::vector<double> weights)
    : memory_(per_channel, channels, interleave),
      arbiter_(Arbiter::make(arbiter, std::move(weights))) {}

Client& MultiChannelSystem::add_client(std::unique_ptr<Client> client) {
  require(client != nullptr, "multi system: null client");
  clients_.push_back(std::move(client));
  stats_.emplace_back();
  fifos_.emplace_back(
      memory_.channel(0).config().bytes_per_access());
  pending_.emplace_back();
  return *clients_.back();
}

void MultiChannelSystem::step() {
  const unsigned burst = memory_.channel(0).config().bytes_per_access();

  // 1. Completions.
  memory_.drain_completed_into(completed_scratch_);
  for (const dram::Request& r : completed_scratch_) {
    const std::size_t i = r.client_id;
    stats_[i].record_completion(r);
    fifos_[i].on_complete();
    clients_[i]->notify_complete(r, cycle_);
  }

  // 2. Up to `channels` grants per cycle. A client with a parked
  //    (previously blocked) request offers that; otherwise its next
  //    request. Blocked requests park in pending_ and retry — nothing is
  //    dropped.
  std::vector<bool>& ready = ready_;
  ready.assign(clients_.size(), false);
  for (std::size_t i = 0; i < clients_.size(); ++i)
    ready[i] = pending_[i].has_value() || clients_[i]->has_request(cycle_);
  std::vector<bool>& channel_granted = channel_granted_;
  channel_granted.assign(memory_.channels(), false);
  for (unsigned g = 0; g < memory_.channels(); ++g) {
    const std::size_t win = arbiter_->pick(ready);
    if (win == Arbiter::kNone) break;
    dram::Request r;
    if (pending_[win].has_value()) {
      r = *pending_[win];
      pending_[win].reset();
    } else {
      r = clients_[win]->make_request(cycle_);
      r.client_id = static_cast<unsigned>(win);
    }
    const unsigned ch = memory_.route(r.addr);
    if (channel_granted[ch] || !memory_.enqueue(r)) {
      pending_[win] = r;  // park and retry next cycle
      stats_[win].stall_cycles++;
      clients_[win]->notify_rejected(cycle_);
      ready[win] = false;
      continue;
    }
    channel_granted[ch] = true;
    arbiter_->granted(win, burst);
    stats_[win].issued++;
    stats_[win].bytes += burst;
    fifos_[win].on_issue();
    ready[win] =
        pending_[win].has_value() || clients_[win]->has_request(cycle_);
  }

  // 3. Sampling + advance.
  for (std::size_t i = 0; i < clients_.size(); ++i) fifos_[i].sample();
  memory_.tick();
  ++cycle_;
}

void MultiChannelSystem::skip_quiet_stretch(std::uint64_t end) {
  if (cycle_ >= end) return;
  if (memory_.has_completions()) return;
  // Clients first: the channels' event bound costs a queue pass per
  // channel and is wasted whenever a client is ready.
  std::uint64_t stop = end;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (pending_[i].has_value()) return;  // parked request retries each cycle
    const std::uint64_t wake = clients_[i]->next_request_cycle(cycle_);
    if (wake <= cycle_) return;
    stop = std::min(stop, wake);
  }
  stop = std::min(stop, memory_.next_event_cycle());
  if (stop <= cycle_) return;
  const std::uint64_t k = stop - cycle_;
  for (std::size_t i = 0; i < clients_.size(); ++i) fifos_[i].sample_repeated(k);
  memory_.advance_idle(k);
  cycle_ += k;
}

void MultiChannelSystem::run(std::uint64_t cycles) {
  const std::uint64_t end = cycle_ + cycles;
  while (cycle_ < end) {
    step();
    if (fast_forward_) skip_quiet_stretch(end);
  }
}

}  // namespace edsim::clients

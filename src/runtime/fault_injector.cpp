#include "runtime/fault_injector.hpp"

#include "obs/hooks.hpp"

namespace privagic::runtime {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCrash: return "crash";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed) {}

void FaultInjector::script(std::uint64_t index, FaultKind kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  plan_[index] = kind;
}

FaultKind FaultInjector::classify() {
  const std::lock_guard<std::mutex> lock(mu_);
  const FaultKind verdict = classify_locked();
  obs::on_fault_verdict(static_cast<std::uint8_t>(verdict));
  return verdict;
}

FaultKind FaultInjector::classify_locked() {
  const std::uint64_t index = counts_.crossings++;
  auto scripted = plan_.find(index);
  if (scripted != plan_.end()) {
    count_locked(scripted->second);
    return scripted->second;
  }
  // One draw per crossing keeps the stream aligned with the crossing index
  // even when a scripted entry intervenes elsewhere.
  const double u = rng_.next_double();
  double edge = config_.drop;
  if (u < edge) { count_locked(FaultKind::kDrop); return FaultKind::kDrop; }
  edge += config_.duplicate;
  if (u < edge) { count_locked(FaultKind::kDuplicate); return FaultKind::kDuplicate; }
  edge += config_.reorder;
  if (u < edge) { count_locked(FaultKind::kReorder); return FaultKind::kReorder; }
  edge += config_.corrupt;
  if (u < edge) { count_locked(FaultKind::kCorrupt); return FaultKind::kCorrupt; }
  edge += config_.delay;
  if (u < edge) { count_locked(FaultKind::kDelay); return FaultKind::kDelay; }
  edge += config_.crash;
  if (u < edge) { count_locked(FaultKind::kCrash); return FaultKind::kCrash; }
  return FaultKind::kNone;
}

void FaultInjector::count_locked(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: break;
    case FaultKind::kDrop: ++counts_.drops; break;
    case FaultKind::kDuplicate: ++counts_.duplicates; break;
    case FaultKind::kReorder: ++counts_.reorders; break;
    case FaultKind::kCorrupt: ++counts_.corrupts; break;
    case FaultKind::kDelay: ++counts_.delays; break;
    case FaultKind::kCrash: ++counts_.crashes; break;
  }
}

Message FaultInjector::corrupted_copy(const Message& m) {
  // Flip bits chosen from the deterministic stream. Corrupting the payload
  // (never kind/tag) keeps the message *matchable*, which is the interesting
  // attack: a waiter receives it, and only the MAC can tell it is garbage.
  Message bad = m;
  bad.payload ^= static_cast<std::int64_t>(rng_.next() | 1);
  return bad;
}

void FaultInjector::filter(std::size_t channel, const Message& m,
                           std::vector<Message>& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  Channel& ch = channels_[channel];
  ++ch.pushes;  // this crossing counts; held releases are due *after* it
  const FaultKind verdict = classify_locked();
  obs::on_fault_verdict(static_cast<std::uint8_t>(verdict));
  switch (verdict) {
    case FaultKind::kNone:
      out.push_back(m);
      break;
    case FaultKind::kDrop:
      break;
    case FaultKind::kDuplicate:
      out.push_back(m);
      out.push_back(m);
      break;
    case FaultKind::kCorrupt:
      out.push_back(corrupted_copy(m));
      break;
    case FaultKind::kReorder:
      ch.held.push_back({m, ch.pushes + 1});
      break;
    case FaultKind::kDelay:
      ch.held.push_back(
          {m, ch.pushes + static_cast<std::uint64_t>(config_.delay_crossings)});
      break;
    case FaultKind::kCrash:
      // The enclave dies just as this message lands: the kCrash control is
      // queued AHEAD of it (Mailbox::take prefers the earlier control), so
      // the worker aborts before consuming the request. The request itself
      // survives in the unsafe-memory queue — only in-enclave state is lost.
      out.push_back(Message::crash());
      out.push_back(m);
      break;
  }
  for (auto it = ch.held.begin(); it != ch.held.end();) {
    if (it->due_at_push <= ch.pushes) {
      out.push_back(it->message);
      it = ch.held.erase(it);
    } else {
      ++it;
    }
  }
}

void FaultInjector::flush(std::size_t channel, std::vector<Message>& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  for (Held& h : it->second.held) out.push_back(h.message);
  it->second.held.clear();
}

FaultInjector::Counts FaultInjector::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

}  // namespace privagic::runtime

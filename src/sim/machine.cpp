#include "sim/machine.hpp"

#include <algorithm>
#include <exception>

#include "sim/epoch.hpp"
#include "sim/fault.hpp"

namespace pup::sim {

Machine::Machine(int nprocs, CostModel cost)
    : Machine(nprocs, cost, Topology::crossbar(nprocs),
              ExecPolicy::from_env()) {}

Machine::Machine(int nprocs, CostModel cost, Topology topology)
    : Machine(nprocs, cost, std::move(topology), ExecPolicy::from_env()) {}

Machine::Machine(int nprocs, CostModel cost, Topology topology,
                 ExecPolicy exec)
    : Machine(nprocs, cost, std::move(topology), exec,
              backend::kind_from_env()) {}

Machine::Machine(int nprocs, CostModel cost, Topology topology,
                 ExecPolicy exec, backend::Kind backend)
    : nprocs_(nprocs),
      cost_(cost),
      topology_(std::move(topology)),
      exec_(exec),
      times_(static_cast<std::size_t>(nprocs)),
      trace_(nprocs),
      modeled_us_(static_cast<std::size_t>(nprocs), 0.0),
      arenas_(static_cast<std::size_t>(nprocs)) {
  PUP_REQUIRE(nprocs >= 1, "machine needs at least one processor");
  PUP_REQUIRE(topology_.nprocs() == nprocs,
              "topology size " << topology_.nprocs() << " != nprocs "
                               << nprocs);
  PUP_REQUIRE(exec_.threads >= 1,
              "execution policy needs >= 1 thread, got " << exec_.threads);
  backend_ = backend::make_backend(backend, nprocs, exec_);
  faults_ = FaultPlan::from_env();
}

Machine::~Machine() = default;

void Machine::parallel_ranks(const std::function<void(int)>& fn) {
  PUP_CHECK(!in_parallel_phase_,
            "nested local_phase inside a threaded local_phase body");
  in_parallel_phase_ = true;
  // Bodies may throw (contract violations, user errors).  Capture per rank
  // and rethrow the lowest-rank exception so the reported failure does not
  // depend on thread scheduling.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs_));
  backend_->run_ranks(nprocs_, [&](int rank) {
    try {
      fn(rank);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
    }
  });
  in_parallel_phase_ = false;
  for (auto& err : errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
}

void Machine::post(Message m, Category cat) {
  PUP_REQUIRE(m.src >= 0 && m.src < nprocs_, "bad source rank " << m.src);
  PUP_REQUIRE(m.dst >= 0 && m.dst < nprocs_, "bad destination rank " << m.dst);
  if (faults_ != nullptr) {
    const FaultEvent ev = faults_->decide(m, annotation_stack_);
    if (ev.killed_rank >= 0) {
      // A kill rule's countdown expired on this post: the rank is dead
      // from this moment on (fail-stop).  The event is the only externally
      // visible record of the death itself; detection is the reliable
      // layer's heartbeat timeout.
      annotate_event(Event::kFaultKill);
    }
    switch (ev.action) {
      case FaultAction::kDeliver:
        break;
      case FaultAction::kDeadSource:
        // The sender is dead: the message never reaches the network.
        // Like a drop it is neither traced nor observed, so peers only
        // notice through missing frames.
        annotate_event(Event::kFaultDead);
        return;
      case FaultAction::kDrop:
        // The message vanishes in the network: never traced, never shown
        // to the observer as a post, never delivered.
        annotate_event(Event::kFaultDrop);
        return;
      case FaultAction::kDuplicate: {
        annotate_event(Event::kFaultDuplicate);
        Message copy = m;
        copy.wire.duplicate = true;
        deliver(std::move(m), cat);
        deliver(std::move(copy), cat);
        return;
      }
      case FaultAction::kDelay:
        // The post happens now (traced and observed) but the network holds
        // the message for ev.delay_ticks receive calls.
        annotate_event(Event::kFaultDelay);
        m.wire.delayed = true;
        record_post(m, cat);
        delayed_.push_back(DelayedMessage{std::move(m), ev.delay_ticks});
        return;
      case FaultAction::kTruncate:
        annotate_event(Event::kFaultTruncate);
        m.wire.truncated = true;
        if (m.wire.orig_bytes == 0) m.wire.orig_bytes = m.payload.size();
        m.payload.resize(ev.truncate_to);
        break;  // the mangled copy is delivered normally
    }
  }
  deliver(std::move(m), cat);
}

void Machine::deliver(Message m, Category cat) {
  record_post(m, cat);
  backend_->enqueue(std::move(m));
}

void Machine::record_post(const Message& m, Category cat) {
  trace_.record_message(m.src, m.dst, m.size_bytes(), cat);
  notify([&](MachineObserver& o) { o.on_post(m, cat); });
}

void Machine::tick_delayed() {
  if (delayed_.empty()) return;
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (--it->ticks <= 0) {
      backend_->enqueue(std::move(it->m));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
}

void Machine::flush_delayed() {
  for (auto& d : delayed_) {
    backend_->enqueue(std::move(d.m));
  }
  delayed_.clear();
}

void Machine::set_fault_plan(std::unique_ptr<FaultPlan> plan) {
  faults_ = std::move(plan);
  annotation_stack_.clear();
}

std::unique_ptr<FaultPlan> Machine::take_fault_plan() {
  return std::move(faults_);
}

void Machine::expire_delayed() {
  // Swap the queue out first so an observer that throws (a fail-fast
  // validator) cannot leave expired messages behind.
  std::deque<DelayedMessage> expired;
  expired.swap(delayed_);
  if (faults_ != nullptr) {
    faults_->note_expired(static_cast<std::int64_t>(expired.size()));
  }
  for (const auto& d : expired) {
    annotate_event(Event::kFaultDelayExpired);
    notify([&](MachineObserver& o) { o.on_expire(d.m); });
  }
}

double Machine::modeled_total_us() const {
  double total = 0.0;
  for (const double us : modeled_us_) total += us;
  return total;
}

std::shared_ptr<const EpochCheckpoint> Machine::checkpoint_epoch() {
  auto cp = std::make_shared<EpochCheckpoint>();
  cp->sequence_ = ++epochs_checkpointed_;
  cp->mailboxes = backend_->snapshot_mailboxes();
  cp->times = times_;
  cp->trace = trace_;
  cp->delayed_msgs.reserve(delayed_.size());
  cp->delayed_ticks.reserve(delayed_.size());
  for (const auto& d : delayed_) {
    cp->delayed_msgs.push_back(d.m);
    cp->delayed_ticks.push_back(d.ticks);
  }
  cp->annotation_stack = annotation_stack_;
  cp->modeled_us = modeled_us_;
  if (reliable_state_ != nullptr) {
    PUP_CHECK(reliable_cloner_ != nullptr,
              "epoch checkpoint with reliable state but no registered "
              "cloner");
    cp->reliable = reliable_cloner_(reliable_state_.get());
  }
  // Emitted after capture so an observer's own snapshot corresponds to the
  // captured machine state.
  annotate_event(Event::kEpochCheckpoint);
  return cp;
}

void Machine::rollback_epoch(const EpochCheckpoint& cp) {
  PUP_REQUIRE(cp.times.size() == times_.size(),
              "epoch checkpoint from a machine with "
                  << cp.times.size() << " processors rolled back on one with "
                  << times_.size());
  backend_->restore_mailboxes(cp.mailboxes);
  times_ = cp.times;
  trace_ = cp.trace;
  delayed_.clear();
  for (std::size_t i = 0; i < cp.delayed_msgs.size(); ++i) {
    delayed_.push_back(
        DelayedMessage{cp.delayed_msgs[i], cp.delayed_ticks[i]});
  }
  annotation_stack_ = cp.annotation_stack;
  modeled_us_ = cp.modeled_us;
  // Arenas are not modeled state (they hold only value-free capacity, never
  // live payload bytes), so rollback purges rather than restores them.
  for (auto& arena : arenas_) arena.purge();
  if (cp.reliable != nullptr) {
    PUP_CHECK(reliable_cloner_ != nullptr,
              "epoch rollback with reliable state but no registered cloner");
    // Clone again (instead of adopting the snapshot) so the checkpoint
    // stays pristine for further rollbacks.
    reliable_state_ = reliable_cloner_(cp.reliable.get());
  } else {
    reliable_state_.reset();
  }
  ++epochs_rolled_back_;
  // Emitted after the restore so observers resync against restored state.
  annotate_event(Event::kEpochRollback);
}

void Machine::mark_epoch_boundary() {
  ++epoch_boundaries_;
  annotate_event(Event::kEpochBoundary);
  // Boundary = consistent cut = safe throw point.  The poll runs after the
  // boundary event, so observers see the cut before any trip.
  poll_cancellation();
}

void Machine::poll_cancellation_slow() {
  const double elapsed_us = modeled_total_us() - cancel_entry_us_;
  const StopCause cause = cancel_token_->tripped(elapsed_us);
  if (cause == StopCause::kNone) return;
  // The trip event fires before the throw so observers see why the
  // operation is about to unwind; the token is removed so the rollback /
  // drain code the exception runs through cannot re-trip.
  annotate_event(Event::kCancelTrip);
  set_cancel_token(nullptr);
  throw CancelError(
      cause, std::string("operation stopped at round boundary: ") +
                 stop_cause_name(cause) + " (modeled " +
                 std::to_string(elapsed_us) + " us into the operation)");
}

std::optional<Message> Machine::receive(int rank, int src, int tag) {
  PUP_REQUIRE(rank >= 0 && rank < nprocs_, "bad rank " << rank);
  tick_delayed();
  auto m = backend_->dequeue(rank, src, tag);
  if (m.has_value()) {
    notify([&](MachineObserver& o) { o.on_receive(rank, *m); });
  }
  return m;
}

Message Machine::receive_required(int rank, int src, int tag) {
  auto m = receive(rank, src, tag);
  PUP_CHECK(m.has_value(), "rank " << rank << " expected a message from src="
                                   << src << " tag=" << tag);
  return std::move(*m);
}

bool Machine::has_message(int rank, int src, int tag) const {
  PUP_REQUIRE(rank >= 0 && rank < nprocs_, "bad rank " << rank);
  return backend_->has(rank, src, tag);
}

double Machine::max_us(Category cat) const {
  double best = 0.0;
  for (const auto& t : times_) best = std::max(best, t[cat]);
  return best;
}

double Machine::max_total_us() const {
  double best = 0.0;
  for (const auto& t : times_) best = std::max(best, t.total_us());
  return best;
}

void Machine::reset_accounting() {
  PUP_CHECK(mailboxes_empty(),
            "reset_accounting with undelivered messages in flight");
  notify([](MachineObserver& o) { o.on_reset(); });
  for (auto& t : times_) t.reset();
  trace_.reset();
  std::fill(modeled_us_.begin(), modeled_us_.end(), 0.0);
}

bool Machine::mailboxes_empty() const {
  return delayed_.empty() && backend_->all_empty();
}

}  // namespace pup::sim

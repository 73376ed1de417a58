// Observer interface for machine instrumentation.
//
// Split from sim/instrumentation.hpp (which provides the RAII annotation
// scopes) so that Machine can depend on the observer type without a header
// cycle.  Every hook has an empty default body: observers override only what
// they need.  Any number of observers may be attached at once
// (Machine::add_observer); the machine calls each hook on every attached
// observer in attach order.
//
// Two kinds of annotation reach observers.  *Phases* bracket a span of work
// (on_phase_begin/on_phase_end, emitted by sim::PhaseScope) and are what
// the paper's per-bucket breakdowns are read from.  *Events* mark a single
// instant -- an injected fault, an epoch checkpoint, a plan-cache lookup --
// and arrive through on_event as a typed sim::Event.
//
// Thread-safety contract: the Machine serializes all observer forwarding
// through one internal mutex, so hook implementations never run
// concurrently with each other and need no locking of their own -- this
// holds under both the sequential and the threaded execution policy
// (sim/exec_policy.hpp).  Transport events additionally only originate on
// the machine's calling thread, never from inside local-phase bodies.
#pragma once

#include <vector>

#include "sim/timing.hpp"

namespace pup::sim {

struct Message;

/// How a collective uses the transport within its annotated rounds.
enum class RoundDiscipline {
  /// Round-synchronized: every processor sends at most one message and
  /// receives at most one message per round, and a round fully drains
  /// (the linear-permutation / tree-schedule contract).
  kMaxOneExchange,
  /// No round structure (e.g. the naive many-to-many ablation schedule);
  /// only tag discipline and full drain at collective end apply.
  kUnordered,
};

/// Static description of one collective operation, declared on entry.
struct CollectiveInfo {
  const char* name = "";
  std::vector<int> tags;  ///< tags the collective may post/receive
  RoundDiscipline discipline = RoundDiscipline::kMaxOneExchange;
};

/// Point events reported through MachineObserver::on_event.  Each one marks
/// an instant, not a span: it opens no phase, so it never acts as a
/// cross-phase boundary or as an annotation scope for fault rules.
enum class Event {
  // Fault injection (sim/fault.hpp), emitted by Machine::post and the
  // end-of-scope delayed-queue drain.
  kFaultKill,
  kFaultDead,
  kFaultDrop,
  kFaultDuplicate,
  kFaultDelay,
  kFaultTruncate,
  kFaultDelayExpired,
  // Epochs (sim/epoch.hpp).  Checkpoint and rollback fire after the machine
  // has captured or restored its state, so observers resync against it.
  kEpochCheckpoint,
  kEpochRollback,
  kEpochBoundary,
  // Cooperative cancellation (sim/cancel.hpp): fires before the throw.
  kCancelTrip,
  // Reliable transport (coll/reliable.hpp).
  kReliableCorrupt,
  kReliableDedup,
  kReliableHeartbeat,
  kReliableNak,
  kReliableRetransmit,
  kReliableDrain,
  // Plan cache and recovery executor (plan/).
  kPlanCacheHit,
  kPlanCacheMiss,
  kPlanCacheEvict,
  kPlanCacheInvalidate,
  kPlanCancelRollback,
  // Serving layer (service/), one cache event per request.
  kServiceCacheHit,
  kServiceCacheMiss,
  kServiceBrownoutEnter,
  kServiceBrownoutExit,
  kServiceWatchdogTrip,
  kServiceDeadlineMiss,
  kServiceCancelled,
};

inline constexpr int kNumEvents =
    static_cast<int>(Event::kServiceCancelled) + 1;

/// Stable dotted name of an event, e.g. "fault.drop" or "service.cache.hit".
constexpr const char* event_name(Event e) {
  switch (e) {
    case Event::kFaultKill: return "fault.kill";
    case Event::kFaultDead: return "fault.dead";
    case Event::kFaultDrop: return "fault.drop";
    case Event::kFaultDuplicate: return "fault.duplicate";
    case Event::kFaultDelay: return "fault.delay";
    case Event::kFaultTruncate: return "fault.truncate";
    case Event::kFaultDelayExpired: return "fault.delay.expired";
    case Event::kEpochCheckpoint: return "epoch.checkpoint";
    case Event::kEpochRollback: return "epoch.rollback";
    case Event::kEpochBoundary: return "epoch.boundary";
    case Event::kCancelTrip: return "cancel.trip";
    case Event::kReliableCorrupt: return "reliable.corrupt";
    case Event::kReliableDedup: return "reliable.dedup";
    case Event::kReliableHeartbeat: return "reliable.heartbeat";
    case Event::kReliableNak: return "reliable.nak";
    case Event::kReliableRetransmit: return "reliable.retransmit";
    case Event::kReliableDrain: return "reliable.drain";
    case Event::kPlanCacheHit: return "plan.cache.hit";
    case Event::kPlanCacheMiss: return "plan.cache.miss";
    case Event::kPlanCacheEvict: return "plan.cache.evict";
    case Event::kPlanCacheInvalidate: return "plan.cache.invalidate";
    case Event::kPlanCancelRollback: return "plan.cancel.rollback";
    case Event::kServiceCacheHit: return "service.cache.hit";
    case Event::kServiceCacheMiss: return "service.cache.miss";
    case Event::kServiceBrownoutEnter: return "service.brownout.enter";
    case Event::kServiceBrownoutExit: return "service.brownout.exit";
    case Event::kServiceWatchdogTrip: return "service.watchdog.trip";
    case Event::kServiceDeadlineMiss: return "service.deadline.miss";
    case Event::kServiceCancelled: return "service.cancelled";
  }
  return "?";
}

class MachineObserver {
 public:
  virtual ~MachineObserver() = default;

  // --- transport events ------------------------------------------------
  virtual void on_post(const Message& /*m*/, Category /*cat*/) {}
  virtual void on_receive(int /*rank*/, const Message& /*m*/) {}
  /// A delay-faulted message the network discarded unreceived when the
  /// outermost annotation scope closed (see Machine::flush_delayed and the
  /// end-of-operation drain).  The post was observed and traced; this hook
  /// closes its lifecycle so validators can retire the matching record.
  virtual void on_expire(const Message& /*m*/) {}
  /// Modeled (analytical) communication time charged to a processor.  Real
  /// wall-clock time measured by ScopedRealTimer is *not* reported here,
  /// which keeps observer-derived digests deterministic.
  virtual void on_charge(int /*rank*/, Category /*cat*/, double /*us*/) {}

  // --- annotations ------------------------------------------------------
  virtual void on_collective_begin(const CollectiveInfo& /*info*/) {}
  virtual void on_round_begin() {}
  virtual void on_round_end() {}
  virtual void on_collective_end() {}
  virtual void on_phase_begin(const char* /*name*/) {}
  virtual void on_phase_end(const char* /*name*/) {}
  virtual void on_event(Event /*e*/) {}
  virtual void on_reset() {}
};

}  // namespace pup::sim

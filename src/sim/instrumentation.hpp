// Opt-in instrumentation interface for the simulated machine.
//
// A MachineObserver receives every transport event (post, receive, modeled
// charge) plus *annotations*: collectives declare a scope with their allowed
// tags and round discipline, round-synchronized schedules bracket each round,
// and algorithm stages bracket named phases.  (Point events -- faults,
// epochs, cache lookups -- need no scope: Machine::annotate_event.)  The
// default implementation of every hook is a no-op, and a machine without
// observers pays only an emptiness check per event, so production runs are
// unaffected.
//
// The annotations are emitted by the library itself (coll/ wraps every
// collective, core/ names its algorithm phases, Machine::local_phase marks
// phase boundaries); analysis/protocol_validator.hpp turns them into
// enforced protocol invariants.
//
// All scopes are constructed and destroyed on the machine's calling thread
// (collectives and phase brackets never run inside a threaded local-phase
// body), and the machine serializes the underlying observer callbacks, so
// these annotations are safe under either execution policy.
#pragma once

#include <initializer_list>
#include <vector>

#include "sim/machine.hpp"
#include "sim/observer.hpp"

namespace pup::sim {

/// RAII annotation for one collective operation.  Declares the tags the
/// collective is allowed to use and its round discipline.
class CollectiveScope {
 public:
  CollectiveScope(Machine& m, const char* name,
                  std::initializer_list<int> tags,
                  RoundDiscipline discipline = RoundDiscipline::kMaxOneExchange)
      : machine_(m) {
    machine_.annotate_collective_begin(
        CollectiveInfo{name, std::vector<int>(tags), discipline});
  }

  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

  ~CollectiveScope() { machine_.annotate_collective_end(); }

 private:
  Machine& machine_;
};

/// RAII annotation for one synchronized round inside a collective.
class RoundScope {
 public:
  explicit RoundScope(Machine& m) : machine_(m) {
    machine_.annotate_round_begin();
  }

  RoundScope(const RoundScope&) = delete;
  RoundScope& operator=(const RoundScope&) = delete;

  ~RoundScope() { machine_.annotate_round_end(); }

 private:
  Machine& machine_;
};

/// RAII annotation for a named algorithm phase (e.g. "pack.compose").  The
/// `name` pointer must outlive the scope; string literals are the intended
/// use.  This is the only way to open a phase outside the Machine, so every
/// phase begin has its end by construction.
class PhaseScope {
 public:
  PhaseScope(Machine& m, const char* name) : machine_(m), name_(name) {
    machine_.annotate_phase_begin(name_);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() { machine_.annotate_phase_end(name_); }

 private:
  Machine& machine_;
  const char* name_;
};

}  // namespace pup::sim

// Dynamic protocol validator for the simulated machine.
//
// The redistribution and ranking stages are message-protocol-heavy: the
// linear-permutation many-to-many schedule, the two-phase request/response
// of UNPACK and the round-synchronized prefix-reduction-sum all assume a
// strict transport discipline.  A violation -- an orphaned post, a tag from
// another collective, a message received in the wrong round, a payload whose
// modeled tau + mu*m cost was never charged -- silently corrupts results
// and modeled time alike.
//
// ProtocolValidator attaches to a Machine through the opt-in observer
// interface (sim/observer.hpp) and enforces, using the annotations that the
// collectives and core algorithms emit (sim/instrumentation.hpp):
//
//   * matched send/receive pairs -- every post is eventually received; a
//     receive must correspond to an observed post;
//   * tag discipline -- inside a collective scope only the declared tags may
//     appear on the wire;
//   * round cardinality -- under RoundDiscipline::kMaxOneExchange each
//     processor sends at most one and receives at most one message per
//     round (checked when the round ends), and every round fully drains
//     (no wrong-round exchanges);
//   * cross-phase isolation -- no messages may be in flight when a local
//     phase or a new collective begins, or when accounting is reset;
//   * payload-size/cost conformance -- a processor that moved m bytes in a
//     round must have been charged at least the modeled cost of its largest
//     message (tau + mu*m under the machine's topology).
//
// The round checks read the validator's Recording (analysis/static/
// trace_check.hpp): every collective scope becomes a block, every round a
// round, holding the transfers and the modeled charges made in it, plus
// the charges made outside every scope.  The same recording is what
// statics::check_trace() replays against a plan's static expansion, so a
// validated run can also be proven to follow its compiled schedule round
// for round.  The recording grows with the run and restarts when the
// machine's accounting is reset, as the machine's trace does.
//
// Fault-injection awareness: the reliable layer (coll/reliable.hpp) and the
// fault injector (sim/fault.hpp) produce traffic that legitimately bends
// the round discipline -- NAK control frames (sim::kReliableNakTag),
// retransmissions, injected duplicates, and delay-released copies.  The
// validator recognizes these by tag and by Message::wire flags: they are
// exempt from round cardinality, tag discipline (NAKs only), and cost
// conformance, and they may linger past a round's end (the reliable layer's
// collective-end drain sweeps them, so collective/phase/reset boundaries
// stay strict).  Point events (sim::Event: fault.*, reliable.*, epoch.*,
// plan.cache.*, service.*) are not phases and never trigger the
// cross-phase leakage check.  Everything else is validated as strictly as
// ever, so a validated run under an arbitrary fault schedule still proves
// the recovery protocol drains and charges honestly.
//
// Epoch rollback awareness: the recovery layer (plan/resilient.hpp) rolls
// the machine back to an entry checkpoint when an operation fails mid-
// flight.  The validator mirrors that: on Event::kEpochCheckpoint it
// snapshots its own protocol state (in-flight records, open scopes, round
// state, the recording's length and open blocks, recorded violations) and
// on Event::kEpochRollback it restores the snapshot, so sends and receives
// of the aborted epoch -- including the spurious "orphaned at end of
// collective" records produced while scope guards unwind through the
// exception -- no longer count toward drain or charge conformance, and the
// recording holds only the attempt that succeeded.  The snapshot survives
// any number of rollbacks, matching the machine's own checkpoint
// semantics.
//
// Delayed-queue hygiene: a delay-faulted message still held by the machine
// at a cross-phase boundary would leak into the next operation, so at
// every strict boundary (new collective, phase begin, reset, finish)
// the validator also checks Machine::delayed_pending() == 0
// ("delayed-queue-leak").  The machine's own end-of-scope drain expires
// leftovers and reports each through on_expire, which retires the
// validator's in-flight record for the expired message.
//
// Violations are recorded, never thrown; `ok()` / `violations()` /
// `report()` expose the outcome.  Traffic outside every collective scope
// is always a violation ("unscoped-post"): library code posts only inside
// annotated collectives, and raw posts are exactly the unannotated
// back-channels the validator exists to ban.  The validator is a pure
// observer: it never changes message flow, timing, or the trace, so a
// validated run computes bit-for-bit the same results as an unvalidated
// one.
//
// The validator needs no locking of its own: the Machine serializes all
// observer callbacks through its internal mutex (see sim/machine.hpp), so
// the validator's state machine sees one sequential event stream even when
// the machine runs local phases on a thread pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/static/trace_check.hpp"
#include "sim/machine.hpp"
#include "sim/observer.hpp"

namespace pup::analysis {

struct Violation {
  std::string rule;    ///< stable identifier, e.g. "orphaned-message"
  std::string detail;  ///< human-readable context
};

struct ValidatorStats {
  std::int64_t posts = 0;
  std::int64_t receives = 0;
  std::int64_t rounds = 0;
  std::int64_t collectives = 0;
  std::int64_t phases = 0;
};

class ProtocolValidator final : public sim::MachineObserver {
 public:
  explicit ProtocolValidator(sim::Machine& machine);
  ~ProtocolValidator() override;

  ProtocolValidator(const ProtocolValidator&) = delete;
  ProtocolValidator& operator=(const ProtocolValidator&) = delete;

  /// Runs the end-of-validation checks (undelivered messages) now instead
  /// of waiting for destruction.  Idempotent.
  void finish();

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  const ValidatorStats& stats() const { return stats_; }
  /// All violations joined into one newline-separated report ("" when ok).
  std::string report() const;
  /// The run's communication structure since attachment or the last
  /// reset, for statics::check_trace (see the header comment).
  const statics::Recording& recording() const { return recording_; }

  // --- MachineObserver --------------------------------------------------
  void on_post(const sim::Message& m, sim::Category cat) override;
  void on_receive(int rank, const sim::Message& m) override;
  void on_expire(const sim::Message& m) override;
  void on_charge(int rank, sim::Category cat, double us) override;
  void on_collective_begin(const sim::CollectiveInfo& info) override;
  void on_round_begin() override;
  void on_round_end() override;
  void on_collective_end() override;
  void on_phase_begin(const char* name) override;
  void on_phase_end(const char* name) override;
  void on_event(sim::Event e) override;
  void on_reset() override;

 private:
  /// One undelivered message.  `relaxed` marks reliability/fault traffic
  /// (NAKs, retransmissions, duplicates, delayed copies) that may outlive
  /// the round that posted it; the collective-end drain still accounts for
  /// every such record.
  struct PostRecord {
    std::size_t bytes = 0;
    bool relaxed = false;
  };

  /// The validator's protocol state at an epoch checkpoint, restored
  /// verbatim when the machine rolls back (see the header comment).  The
  /// recording is append-only outside its open blocks, so the snapshot
  /// keeps its length and copies only what can still change: the open
  /// blocks and the outside-collective charges.  Taking one costs the
  /// open state, not the whole run.
  struct EpochSnapshot {
    std::map<std::tuple<int, int, int>, std::deque<PostRecord>> in_flight;
    std::size_t in_flight_count = 0;
    std::size_t in_flight_relaxed = 0;
    std::vector<std::size_t> scopes;
    std::vector<const char*> phases;
    bool in_round = false;
    std::size_t recorded_blocks = 0;
    std::vector<statics::Recording::Block> open_blocks;  ///< one per scope
    std::map<int, double> outside_charges;
    std::vector<Violation> violations;
  };

  void violate(const char* rule, std::string detail);
  std::string context() const;
  /// The recorded block of the innermost open collective scope.
  const statics::Recording::Block& block() const {
    return recording_.blocks[scopes_.back()];
  }
  /// Where traffic and charges inside the innermost scope are recorded:
  /// its open round, or its loose round between rounds.
  statics::Recording::Round& sink();
  bool tag_allowed(int tag) const;
  /// Cardinality and cost conformance of the round that just ended.
  void check_round(const statics::Recording::Round& round);
  /// `strict` also counts relaxed (reliability/fault) records; round-end
  /// drains pass false, every other boundary stays strict.
  void check_no_inflight(const char* rule, const char* when,
                         bool strict = true);
  /// A delay-faulted message still held by the machine at a strict
  /// boundary would leak into the next operation.
  void check_no_delayed(const char* when);
  /// Reliability/fault traffic exempt from per-round cardinality and cost
  /// conformance.
  static bool reliability_exempt(const sim::Message& m);
  /// Additionally covers delay-released copies, which are posted as normal
  /// round traffic but may be received later.
  static bool drain_relaxed(const sim::Message& m);

  sim::Machine& machine_;
  bool finished_ = false;

  /// Undelivered messages keyed by (src, dst, tag), in post order (FIFO
  /// matches the mailbox discipline).
  std::map<std::tuple<int, int, int>, std::deque<PostRecord>> in_flight_;
  std::size_t in_flight_count_ = 0;
  std::size_t in_flight_relaxed_ = 0;

  /// Open collective scopes (stack), as indices into recording_.blocks.
  std::vector<std::size_t> scopes_;
  std::vector<const char*> phases_;  ///< open phase names (stack)
  bool in_round_ = false;
  statics::Recording recording_;

  std::vector<Violation> violations_;
  ValidatorStats stats_;
  /// State parked at the last Event::kEpochCheckpoint; restored on every
  /// Event::kEpochRollback.
  std::optional<EpochSnapshot> epoch_;
};

}  // namespace pup::analysis

// Dynamic cross-check: replays a real execution's trace against the static
// expansion, proving the expansion is an honest mirror of what the machine
// actually does.
//
// The static verifier (verifier.hpp) proves the IR self-consistent and
// conformant with the closed forms -- but all three artifacts are computed
// from the plan.  This is the independent leg: a ScheduleRecorder observes
// a live machine (collective scopes, rounds, posts, receives, modeled
// charges -- the same hooks the dynamic ProtocolValidator consumes), and
// check_trace() aligns the recording block-by-block and round-by-round with
// the CommSchedule:
//
//   * exact blocks (ranking PRS): the recorded post/receive multisets and
//     per-rank charges must EQUAL the IR's, round for round;
//   * bounded blocks (mask-dependent M2M): every recorded transfer must
//     match an IR transfer of the same (src, dst, tag) with recorded bytes
//     <= the static bound, and recorded charges must not exceed the IR's;
//   * charge-only blocks (control-network PRS, which runs outside any
//     collective scope): their charges accumulate into the expected
//     outside-collective total, which must match what the machine charged
//     outside scopes.
//
// A schedule change that drifts from the expansion -- a new round, a
// different partner, an extra tau -- fails this check even if the expansion
// and closed forms agree with each other.
// lint: allow-no-preconditions -- observer + comparator; mismatches are
// reported findings, not precondition violations.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/static/comm_ir.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"

namespace pup::analysis::statics {

/// Observer that records the communication structure of one execution.
/// Attach via Machine::add_observer before executing the plan; the
/// recording accumulates until reset().
class ScheduleRecorder final : public sim::MachineObserver {
 public:
  struct Round {
    std::vector<Xfer> posts;
    std::vector<Xfer> recvs;
    std::map<int, double> charges;
  };
  struct Block {
    std::string name;
    std::vector<int> tags;
    sim::RoundDiscipline discipline = sim::RoundDiscipline::kMaxOneExchange;
    std::vector<Round> rounds;
    /// Transfers and charges inside the collective but outside any round
    /// scope (the unordered many-to-many has no round structure).
    Round loose;
  };

  const std::vector<Block>& blocks() const { return blocks_; }
  const std::map<int, double>& outside_charges() const {
    return outside_charges_;
  }
  void reset();

  void on_post(const sim::Message& m, sim::Category cat) override;
  void on_receive(int rank, const sim::Message& m) override;
  void on_charge(int rank, sim::Category cat, double us) override;
  void on_collective_begin(const sim::CollectiveInfo& info) override;
  void on_round_begin() override;
  void on_round_end() override;
  void on_collective_end() override;
  void on_reset() override;

 private:
  Round& sink();
  std::vector<Block> blocks_;
  std::map<int, double> outside_charges_;
  bool in_collective_ = false;
  bool in_round_ = false;
};

struct TraceCheckResult {
  std::vector<std::string> issues;
  bool ok() const { return issues.empty(); }
};

/// Aligns a recording with the static schedule.  `tolerance_us` bounds the
/// acceptable double-accumulation noise on charge comparisons.
TraceCheckResult check_trace(const ScheduleRecorder& recorder,
                             const CommSchedule& schedule,
                             double tolerance_us = 1e-6);

}  // namespace pup::analysis::statics

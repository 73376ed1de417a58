// Dynamic cross-check: replays a real execution's trace against the static
// expansion, proving the expansion is an honest mirror of what the machine
// actually does.
//
// The static verifier (verifier.hpp) proves the IR self-consistent and
// conformant with the closed forms -- but all three artifacts are computed
// from the plan.  This is the independent leg: the dynamic
// ProtocolValidator (analysis/protocol_validator.hpp) fills a Recording of
// a live machine (collective scopes, rounds, posts, receives, modeled
// charges) while it polices the run, and check_trace() aligns that
// recording block-by-block and round-by-round with the CommSchedule:
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
// lint: allow-no-preconditions -- plain data + comparator; mismatches are
// reported findings, not precondition violations.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/static/comm_ir.hpp"
#include "sim/observer.hpp"

namespace pup::analysis::statics {

/// The communication structure of one execution, as plain data; the
/// ProtocolValidator fills it.  Traffic outside every collective scope is
/// not recorded (only its charges are).  Inside a scope, traffic the round
/// discipline exempts -- the reliable layer's NAKs, retransmissions and
/// injected duplicates, and the late receive of a delay-faulted message --
/// lands in the block's `loose` round, never in a numbered one.
struct Recording {
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

  std::vector<Block> blocks;
  /// Modeled charges made outside every collective scope, per rank.
  std::map<int, double> outside_charges;
};

struct TraceCheckResult {
  std::vector<std::string> issues;
  bool ok() const { return issues.empty(); }
};

/// Absolute slack (microseconds) for charge comparisons: bounds the
/// double-accumulation noise of summing tau + mu*m terms in another order.
inline constexpr double kChargeToleranceUs = 1e-6;

/// Aligns a recording with the static schedule.
TraceCheckResult check_trace(const Recording& recording,
                             const CommSchedule& schedule);

}  // namespace pup::analysis::statics

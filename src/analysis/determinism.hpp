// Determinism regression checker.
//
// The simulator's contract is bit-for-bit reproducibility: running the same
// operation on the same machine configuration must produce the same message
// counts, the same per-rank byte totals, and the same modeled time charges.
// Nondeterminism (iteration over pointer-keyed containers, uninitialized
// reads, wall-clock leaking into control flow) breaks the test suite's exact
// assertions and every comparative claim the benches make.
//
// check_determinism() replays an operation twice, each time on a fresh
// machine, records a TraceDigest of everything deterministic -- message and
// byte counts (global, per category, per rank), self-traffic, and the
// *modeled* time buckets accumulated through Machine::charge (real
// wall-clock timers are deliberately excluded) -- and compares the two
// digests, reporting the first difference found.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/machine.hpp"

namespace pup::analysis {

/// Deterministic summary of one run's communication behaviour.
struct TraceDigest {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t self_bytes = 0;
  std::array<std::int64_t, sim::kNumCategories> messages_by_cat{};
  std::array<std::int64_t, sim::kNumCategories> bytes_by_cat{};
  std::vector<std::int64_t> sent_bytes;  ///< per rank
  std::vector<std::int64_t> recv_bytes;  ///< per rank
  /// Modeled time charged per rank and category (microseconds), read from
  /// Machine::modeled_us; fed by Machine::charge only, so identical runs
  /// produce identical sums.
  std::vector<std::array<double, sim::kNumCategories>> charged_us;

  bool operator==(const TraceDigest&) const = default;
};

/// Digest of the machine's current trace and modeled charges (everything
/// since construction or the last reset_accounting; a rollback restores
/// both to the checkpoint).  Reads the machine only, so it needs no
/// observer and sees the same state under any epoch history.
TraceDigest digest(const sim::Machine& machine);

/// Human-readable first-difference description; "" when the digests match.
std::string diff_digests(const TraceDigest& a, const TraceDigest& b);

struct DeterminismReport {
  bool deterministic = false;
  std::string diff;  ///< "" when deterministic
  TraceDigest first;
  TraceDigest second;
};

/// Replays `op` twice, each run on a fresh machine from `make_machine`, and
/// compares the two digests.
DeterminismReport check_determinism(
    const std::function<std::unique_ptr<sim::Machine>()>& make_machine,
    const std::function<void(sim::Machine&)>& op);

/// Convenience overload: fresh `nprocs`-processor machines with `cost`.
DeterminismReport check_determinism(
    int nprocs, sim::CostModel cost,
    const std::function<void(sim::Machine&)>& op);

}  // namespace pup::analysis
